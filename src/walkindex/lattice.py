"""Cell-structured operators on finite one-dimensional lattices.

A lattice is a line segment or a circle of cells with (possibly varying)
internal dimensions.  Operators carry their cell structure, a declared
bandwidth (largest cell-to-cell hopping range), and optionally a cell-local
symmetry representation.

Finite segments serve as desk-scale proxies for half-infinite systems: their
artificial outer boundaries are marked as ``proxy_ends`` so that index
computations can exclude modes created by the truncation rather than by the
cut under study.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import CutOutOfRange, IncompatibleCells
from .symmetry import SymmetryClass, SymmetryRep, restrict_runs, spectral_norm
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "CellStructure",
    "LocalSymmetryRep",
    "LatticeOperator",
    "CellProjection",
    "half_space_projection",
    "arc_projection",
    "second_bond",
    "half_spaces",
    "compress",
    "measured_band",
    "cells_near_bond",
    "split_by_weight",
]

# split_by_weight: a column belongs inside at weight >= SPLIT_THRESHOLD and is
# ambiguous strictly between the AMBIGUOUS_WEIGHTS bounds.
SPLIT_THRESHOLD = 0.5
AMBIGUOUS_WEIGHTS = (0.1, 0.9)


@dataclass(frozen=True)
class CellStructure:
    """Cells of a finite segment ('line') or ring ('circle').

    ``proxy_ends`` marks segment ends that stand in for infinity (truncation
    artifacts); a circle has none.  ``x_min`` is the position label of cell 0.
    """

    cell_dims: tuple[int, ...]
    topology: str = "line"
    x_min: int = 0
    proxy_ends: frozenset[str] = field(default=frozenset())

    def __post_init__(self) -> None:
        if self.topology not in ("line", "circle"):
            raise ValueError(f"topology must be 'line' or 'circle', got {self.topology!r}")
        if self.topology == "circle" and self.proxy_ends:
            raise ValueError("a circle has no proxy ends")
        bad = set(self.proxy_ends) - {"left", "right"}
        if bad:
            raise ValueError(f"unknown proxy ends {sorted(bad)}")

    @classmethod
    def uniform(cls, n_cells: int, cell_dim: int, topology: str = "line") -> "CellStructure":
        """Equal cells from position 0; both ends of a line are proxy ends."""
        proxy_ends = ("left", "right") if topology == "line" else ()
        return cls((cell_dim,) * n_cells, topology, 0, frozenset(proxy_ends))

    @property
    def n_cells(self) -> int:
        return len(self.cell_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.cell_dims)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(accumulate(self.cell_dims, initial=0))

    def cell_slice(self, i: int) -> slice:
        off = self.offsets
        return slice(off[i], off[i + 1])

    def index_mask(self, members: Iterable[int]) -> np.ndarray:
        """Boolean mask over the total dimension selecting the given cells."""
        mask = np.zeros(self.total_dim, dtype=bool)
        for i in members:
            mask[self.cell_slice(i)] = True
        return mask

    def bond_distance(self, cell: int, bond: int) -> int:
        """Distance in cells from a cell to the bond between cells b-1 and b."""
        n = self.n_cells
        if self.topology == "circle":
            right = (cell - bond) % n
            left = (bond - 1 - cell) % n
            return int(min(right, left))
        return cell - bond if cell >= bond else bond - 1 - cell


@dataclass(frozen=True)
class LocalSymmetryRep:
    """Cell-local symmetry operators, one block per cell."""

    cls: SymmetryClass
    per_cell: tuple[SymmetryRep, ...]

    @classmethod
    def uniform(cls, cell_rep: SymmetryRep, n_cells: int) -> "LocalSymmetryRep":
        return cls(cell_rep.cls, (cell_rep,) * n_cells)

    @property
    def total_dim(self) -> int:
        return sum(r.dim for r in self.per_cell)

    def assembled(self) -> SymmetryRep:
        """The dense rep on all cells, the reference for the action by :meth:`runs`."""
        return self.per_cell[0].direct_sum(*self.per_cell[1:])

    def runs(self) -> list[tuple[int, int, SymmetryRep]]:
        """``(first index, cell count, cell rep)`` of each maximal run of
        consecutive cells that share one cell-rep object: the rep acts run by run."""
        out: list[tuple[int, int, SymmetryRep]] = []
        start = 0
        for rep in self.per_cell:
            if out and out[-1][2] is rep:
                first, count, _ = out[-1]
                out[-1] = (first, count + 1, rep)
            else:
                out.append((start, 1, rep))
            start += rep.dim
        return out

    def restrict_cells(self, members: Sequence[int]) -> "LocalSymmetryRep":
        return LocalSymmetryRep(self.cls, tuple(self.per_cell[i] for i in members))

    def restrict(self, basis: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SymmetryRep:
        """Restriction to an invariant subspace given by orthonormal columns."""
        return restrict_runs(self.cls, self.runs(), basis, tol)


@dataclass(eq=False)
class LatticeOperator:
    """A matrix together with its cell structure and declared bandwidth."""

    matrix: np.ndarray
    cells: CellStructure
    band: int
    local_rep: LocalSymmetryRep | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.band < 0:
            raise IncompatibleCells(f"declared band {self.band} is negative")
        d = self.cells.total_dim
        if self.matrix.shape != (d, d):
            raise IncompatibleCells(f"matrix shape {self.matrix.shape} != cell total {(d, d)}")
        if self.local_rep is not None and self.local_rep.total_dim != d:
            raise IncompatibleCells("local representation does not match cell dimensions")

    @classmethod
    def with_measured_band(
        cls,
        matrix: np.ndarray,
        cells: CellStructure,
        local_rep: LocalSymmetryRep | None = None,
        meta: dict | None = None,
        tol: Tolerances = DEFAULT_TOL,
    ) -> "LatticeOperator":
        """An operator whose declared band is its measured bandwidth."""
        op = cls(matrix, cells, 0, local_rep, {} if meta is None else meta)
        op.band = measured_band(op, tol)
        return op

    @property
    def dim(self) -> int:
        return self.cells.total_dim

    def block(self, i: int, j: int) -> np.ndarray:
        """The (cell i <- cell j) block."""
        return self.matrix[self.cells.cell_slice(i), self.cells.cell_slice(j)]


@dataclass(frozen=True)
class CellProjection:
    """Projection onto a set of whole cells."""

    cells: CellStructure
    members: tuple[int, ...]

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.mask().astype(float))

    def mask(self) -> np.ndarray:
        return self.cells.index_mask(self.members)

    def cut_bonds(self) -> tuple[int, ...]:
        """Bonds (positions b between cells b-1 and b) where membership flips.

        For a line the outer system edges do not count as bonds.
        """
        n = self.cells.n_cells
        inside = np.zeros(n, dtype=bool)
        inside[list(self.members)] = True
        bonds = []
        rng = range(n) if self.cells.topology == "circle" else range(1, n)
        for b in rng:
            if inside[b] != inside[(b - 1) % n]:
                bonds.append(b)
        return tuple(bonds)


def half_space_projection(cells: CellStructure, cut: int, side: str = "geq") -> CellProjection:
    """Projection onto cells with index >= cut ('geq') or < cut ('lt')."""
    n = cells.n_cells
    if not 0 < cut < n:
        raise CutOutOfRange(f"cut {cut} outside open range (0, {n})")
    if side == "geq":
        members = tuple(range(cut, n))
    elif side == "lt":
        members = tuple(range(cut))
    else:
        raise ValueError(f"side must be 'geq' or 'lt', got {side!r}")
    return CellProjection(cells, members)


def arc_projection(cells: CellStructure, start: int, stop: int) -> CellProjection:
    """Projection onto the arc of cells [start, stop), wrapping on circles."""
    n = cells.n_cells
    if cells.topology == "circle":
        start %= n
        stop %= n
        if start == stop:
            raise CutOutOfRange("arc must be a proper subset of the circle")
        if start < stop:
            members = tuple(range(start, stop))
        else:
            members = tuple(range(start, n)) + tuple(range(stop))
    else:
        if not 0 <= start < stop <= n:
            raise CutOutOfRange(f"segment [{start}, {stop}) outside [0, {n}]")
        members = tuple(range(start, stop))
    return CellProjection(cells, members)


def second_bond(cells: CellStructure, cut: int, second_cut: int | None = None) -> int | None:
    """The second bond of a cut at ``cut``: none on a line, a bond on a circle.

    A line is cut at a single bond, so a ``second_cut`` there is refused.  On
    a circle the second bond defaults to the antipode of ``cut`` and must
    differ from it.  Both refusals raise ``CutOutOfRange``.
    """
    if cells.topology == "line":
        if second_cut is not None:
            raise CutOutOfRange("a line is cut at a single bond; drop the second cut")
        return None
    n = cells.n_cells
    bond = (cut + n // 2) % n if second_cut is None else second_cut % n
    if bond == cut % n:
        raise CutOutOfRange("the two cuts of a circle must differ")
    return bond


def half_spaces(
    op: LatticeOperator, cut: int, second_cut: int | None = None
) -> tuple[LatticeOperator, LatticeOperator]:
    """The pieces ``(left, right)`` of an operator cut at the bond ``cut``.

    On a line these are the compressions to the cells below ``cut`` and from
    ``cut`` on.  On a circle the :func:`second_bond` closes the arcs
    ``[second, cut)`` and ``[cut, second)``, and the end of each arc at the
    second bond is marked as a proxy end, so only the cut at ``cut`` counts.
    """
    cells = op.cells
    second = second_bond(cells, cut, second_cut)
    if second is None:
        return (
            compress(op, half_space_projection(cells, cut, side="lt")),
            compress(op, half_space_projection(cells, cut, side="geq")),
        )
    # arcs of a circle come out of compress with no proxy ends
    left = compress(op, arc_projection(cells, second, cut))
    right = compress(op, arc_projection(cells, cut, second))
    return (
        replace(left, cells=replace(left.cells, proxy_ends=frozenset({"left"}))),
        replace(right, cells=replace(right.cells, proxy_ends=frozenset({"right"}))),
    )


def compress(op: LatticeOperator, proj: CellProjection) -> LatticeOperator:
    """Restrict an operator to the cells of a contiguous projection.

    The result is a segment whose ends are labelled: an end created by a cut
    keeps its bond position in ``meta['end_bonds']``; an end inherited from a
    proxy end of the parent stays a proxy end.
    """
    members = list(proj.members)
    if not members:
        raise IncompatibleCells("cannot compress onto zero cells")
    n = op.cells.n_cells
    member_set = set(members)
    if len(member_set) == n:
        raise IncompatibleCells("projection covers every cell; nothing is cut")
    # Normalize to a contiguous run (wrapping allowed on circles).
    if op.cells.topology == "line":
        start = min(member_set)
        run = list(range(start, start + len(member_set)))
    else:
        starts = [i for i in member_set if (i - 1) % n not in member_set]
        if len(starts) != 1:
            raise IncompatibleCells("projection is not a contiguous arc")
        start = starts[0]
        run = [(start + k) % n for k in range(len(member_set))]
    if set(run) != member_set:
        raise IncompatibleCells("projection is not a contiguous run of cells")

    order = np.concatenate([np.arange(op.dim)[op.cells.cell_slice(i)] for i in run])
    sub = op.matrix[np.ix_(order, order)]
    left_bond = run[0] if not (op.cells.topology == "line" and run[0] == 0) else None
    stop = (run[-1] + 1) % n if op.cells.topology == "circle" else run[-1] + 1
    right_bond = stop if not (op.cells.topology == "line" and stop == n) else None

    proxy = set()
    if left_bond is None and "left" in op.cells.proxy_ends:
        proxy.add("left")
    if right_bond is None and "right" in op.cells.proxy_ends:
        proxy.add("right")
    cells = CellStructure(
        tuple(op.cells.cell_dims[i] for i in run),
        "line",
        op.cells.x_min + run[0] if op.cells.topology == "line" else run[0],
        frozenset(proxy),
    )
    local_rep = op.local_rep.restrict_cells(run) if op.local_rep is not None else None
    meta = {
        "end_bonds": {"left": left_bond, "right": right_bond},
        "parent_cells": tuple(run),
    }
    return LatticeOperator(sub, cells, op.band, local_rep, meta)


def _cell_block_reduce(
    ufunc: np.ufunc, x: np.ndarray, owner: np.ndarray, n_cells: int
) -> np.ndarray:
    """``ufunc`` reduced over each cell-pair block of ``x``; ``owner`` maps indices to cells."""
    rows = np.zeros((n_cells, x.shape[1]))
    ufunc.at(rows, owner, x)
    out = np.zeros((n_cells, n_cells))
    ufunc.at(out.T, owner, rows.T)
    return out


# block-norm bounds within this relative distance of tol.band are settled by an SVD
BAND_SCREEN_SLACK = 1e-12


def measured_band(op: LatticeOperator, tol: Tolerances = DEFAULT_TOL) -> int:
    """Largest |offset| whose blocks exceed the bandwidth tolerance.

    The block ``B`` of cells ``(i, j)`` sits at offset ``i - j``, wrapped on a
    circle to the shorter direction, and is live when ``||B||_2 > tol.band``.
    The spectral norm is screened by ``m <= ||B||_2 <= f``, with ``m`` the
    largest entry modulus of ``B`` and ``f`` its Frobenius norm: a block with
    ``m > tol.band`` is live and one with ``f <= tol.band`` is dead.  Only the
    blocks in between, or with a bound within ``BAND_SCREEN_SLACK`` of
    ``tol.band``, get a :func:`spectral_norm`, taken by decreasing |offset| and
    only beyond the band the screen already certified, so the verdict is the
    SVD one.
    """
    cells = op.cells
    n = cells.n_cells
    owner = np.repeat(np.arange(n), cells.cell_dims)
    a = np.abs(op.matrix)
    big = _cell_block_reduce(np.maximum, a, owner, n)
    # squares of entries scaled by their block maximum cannot underflow to a false zero
    scale = np.where(big > 0, big, 1.0)[owner][:, owner]
    frob = big * np.sqrt(_cell_block_reduce(np.add, (a / scale) ** 2, owner, n))
    cell = np.arange(n)
    dist = np.abs(cell[:, None] - cell[None, :])
    if cells.topology == "circle":
        dist = np.minimum(dist, n - dist)
    live = big > tol.band * (1 + BAND_SCREEN_SLACK)
    band = int(dist[live].max(initial=0))
    # a nan bound is not dead either: the SVD decides it
    unsure = ~live & ~(frob <= tol.band * (1 - BAND_SCREEN_SLACK)) & (dist > band)
    for i, j in sorted(zip(*np.nonzero(unsure)), key=lambda ij: -dist[ij]):
        if spectral_norm(op.block(i, j)) > tol.band:
            return int(dist[i, j])
    return band


def cells_near_bond(cells: CellStructure, bond: int, radius: int) -> tuple[int, ...]:
    """Cells within ``radius`` cells of the bond (radius cells on each side)."""
    return tuple(i for i in range(cells.n_cells) if cells.bond_distance(i, bond) < radius)


def split_by_weight(
    basis: np.ndarray,
    cells: CellStructure,
    members: Iterable[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Split a subspace by weight inside a cell region.

    Diagonalizes the compression of the region projection onto the span and
    splits at ``SPLIT_THRESHOLD``.  Returns (inside, outside, weights, n_ambiguous);
    the rotated basis columns are eigenvectors of the weight operator, so for
    cell-local symmetries the two parts remain symmetry invariant whenever the
    weights are exactly 0/1.
    """
    if basis.shape[1] == 0:
        return basis, basis, np.zeros(0), 0
    mask = cells.index_mask(members).astype(float)
    w_op = basis.conj().T @ (mask[:, None] * basis)
    w_op = (w_op + w_op.conj().T) / 2
    vals, u = np.linalg.eigh(w_op)
    rotated = basis @ u
    inside = rotated[:, vals >= SPLIT_THRESHOLD]
    outside = rotated[:, vals < SPLIT_THRESHOLD]
    lo, hi = AMBIGUOUS_WEIGHTS
    n_amb = int(np.sum((vals > lo) & (vals < hi)))
    return inside, outside, vals, n_amb
