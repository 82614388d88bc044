"""Cell-structured operators on finite one-dimensional lattices.

A lattice is a line segment or a circle of cells with (possibly varying)
internal dimensions.  Operators carry their cell structure, a declared
bandwidth (largest cell-to-cell hopping range), and optionally a cell-local
symmetry representation.

An operator is its cell blocks: one ``(n, d, d)`` stack per hopping offset,
as a stored file holds them.  Built walks, compressions and read files are
made and cut as stacks; the dense matrix is placed from them
(:func:`place_blocks`) only when an eigensolver or an oracle reads it.  A
dense matrix enters on its cells by :meth:`LatticeOperator.from_matrix`, and
a plain matrix as one cell by :meth:`LatticeOperator.one_cell`.

Finite segments serve as desk-scale proxies for half-infinite systems: their
artificial outer boundaries are marked as ``proxy_ends`` so that index
computations can exclude modes created by the truncation rather than by the
cut under study.

An operator's gates, its unitarity defect ``||W* W - 1||`` and the residuals
of its symmetry conditions, are measured once, from its cell band
(:class:`CellBand`), and kept on the operator as :class:`Gate` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CutOutOfRange, IncompatibleCells, NotAdmissible
from .symmetry import (
    ADMISSIBILITY,
    ADMISSIBILITY_SCREEN_SLACK,
    FLOAT_TINY,
    Runs,
    SymmetryClass,
    SymmetryRep,
    apply_runs,
    frobenius_bound,
    restrict_runs,
    spectral_norm,
    times_runs,
)
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "CellStructure",
    "LocalSymmetryRep",
    "LatticeOperator",
    "CellBand",
    "Gate",
    "assemble_blocks",
    "matrix_blocks",
    "place_blocks",
    "gather_blocks",
    "scatter_blocks",
    "measure_unitarity",
    "measure_admissibility",
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

    @cached_property
    def one_block(self) -> bool:
        """Whether the cells are mixed or zero-dimensional, so that an operator
        on them is stored as one block holding its whole matrix."""
        d = self.cell_dims[0] if self.cell_dims else 0
        return d == 0 or self.cell_dims.count(d) != self.n_cells

    def stored_offset(self, j):
        """A hopping offset (or an array of them) as stacks are keyed: wrapped on
        a circle to ``-(n-1)//2 .. n//2``, unchanged on a line."""
        if self.topology == "line":
            return j
        half = (self.n_cells - 1) // 2
        return (j + half) % self.n_cells - half

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


@dataclass(frozen=True, eq=False)
class LatticeOperator:
    """An operator stored as its cell blocks, with its cell structure and declared bandwidth.

    ``blocks[j]`` is the ``(n, d, d)`` stack of the blocks (cell x + j <- cell
    x) on n equal cells of dimension d > 0, keyed by
    :meth:`CellStructure.stored_offset`; on a line a block whose cell x + j
    lies past the ends is zero, and an offset without a nonzero entry may be
    absent.  On mixed or zero-dimensional cells the operator is one block,
    ``blocks[0]`` of shape ``(1, N, N)``.  The stacks hold no ``-0.0`` (placing
    adds them into ``+0.0``) and are made read-only, so the gate records
    measured from them (:attr:`unitarity`, :attr:`admissibility`) cannot go
    stale.  :attr:`matrix` is placed from them on first read.  A whole-cell
    compression keeps the operator it was cut from as ``compressed_from`` and
    inherits its admissibility bound.
    """

    blocks: Mapping[int, np.ndarray]
    cells: CellStructure
    band: int
    local_rep: LocalSymmetryRep | None = None
    meta: dict = field(default_factory=dict)
    compressed_from: "LatticeOperator | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.band < 0:
            raise IncompatibleCells(f"declared band {self.band} is negative")
        cells, total = self.cells, self.cells.total_dim
        if self.local_rep is not None and self.local_rep.total_dim != total:
            raise IncompatibleCells("local representation does not match cell dimensions")
        want = (1, total, total) if cells.one_block else (cells.n_cells,) + (cells.cell_dims[0],) * 2
        for j, stack in self.blocks.items():
            if stack.shape != want:
                raise IncompatibleCells(f"blocks at offset {j} have shape {stack.shape}, not {want}")
            stack.flags.writeable = False

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        cells: CellStructure,
        band: int | None = None,
        local_rep: LocalSymmetryRep | None = None,
        meta: dict | None = None,
        tol: Tolerances = DEFAULT_TOL,
    ) -> "LatticeOperator":
        """The operator of a dense matrix, keeping every offset with a nonzero
        entry (:func:`matrix_blocks`), so :attr:`matrix` gives it back bit for
        bit (a ``-0.0`` as ``+0.0``).  A ``band`` of None is the measured one."""
        d = cells.total_dim
        if np.shape(matrix) != (d, d):
            raise IncompatibleCells(f"matrix shape {np.shape(matrix)} != cell total {(d, d)}")
        return cls.from_blocks(matrix_blocks(matrix, cells), cells, band, local_rep, meta, tol)

    @classmethod
    def from_blocks(
        cls,
        blocks: Mapping[int, np.ndarray],
        cells: CellStructure,
        band: int | None = None,
        local_rep: LocalSymmetryRep | None = None,
        meta: dict | None = None,
        tol: Tolerances = DEFAULT_TOL,
    ) -> "LatticeOperator":
        """The operator of these stacks; a ``band`` of None is the measured one."""
        op = cls(blocks, cells, band or 0, local_rep, {} if meta is None else meta)
        return op if band is not None else replace(op, band=measured_band(op, tol))

    @classmethod
    def one_cell(cls, matrix: np.ndarray) -> "LatticeOperator":
        """A plain matrix as an operator on one cell at band 0.  Its stack is a
        complex copy added into ``+0.0``, so the caller's array never aliases it."""
        stack = np.asarray(matrix, dtype=complex)[None] + 0.0
        return cls({0: stack}, CellStructure((stack.shape[1],)), 0)

    @property
    def dim(self) -> int:
        return self.cells.total_dim

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, read-only, placed from the blocks on first read."""
        return self.cell_band.matrix

    def block(self, i: int, j: int) -> np.ndarray:
        """The (cell i <- cell j) block."""
        return self.matrix[self.cells.cell_slice(i), self.cells.cell_slice(j)]

    @cached_property
    def cell_band(self) -> "CellBand":
        """The blocks within the declared band, read once for both gates."""
        return CellBand(self.blocks, self.cells, self.band)

    @cached_property
    def unitarity(self) -> "Gate":
        """``||W* W - 1||``, measured on first use."""
        return measure_unitarity(self.cell_band)

    @cached_property
    def admissibility(self) -> dict[str, "Gate"]:
        """Walk residuals of each symmetry condition of ``local_rep``, measured on
        first use.  A compression reads its parent's bound and is measured
        itself only where that bound does not pass."""
        if self.local_rep is None:
            raise NotAdmissible("no symmetry representation supplied or attached")
        parent = self.compressed_from
        if parent is None or parent.local_rep is None:
            return measure_admissibility(self.cell_band, self.local_rep.runs(), "walk")
        # the deferred measurement holds the parts, not the operator, which holds it
        blocks, cells, band, local = self.blocks, self.cells, self.band, self.local_rep
        own = _once(lambda: measure_admissibility(CellBand(blocks, cells, band), local.runs(), "walk"))
        # sigma is cell-local, so it commutes with the whole-cell compression P:
        # the residual here is P R P for the parent's R, and ||P R P|| <= ||R||
        return {
            name: Gate(gate.bound, lambda t, name=name: own()[name].screened(t))
            for name, gate in parent.admissibility.items()
        }


def matrix_blocks(matrix: np.ndarray, cells: CellStructure) -> dict[int, np.ndarray]:
    """The blocks of a dense matrix as :class:`LatticeOperator` stores them: a
    stack for every offset with a nonzero entry, or one block on mixed cells."""
    matrix = np.asarray(matrix, dtype=complex)
    if cells.one_block:
        return {0: matrix[None] + 0.0}
    n, d = cells.n_cells, cells.cell_dims[0]
    by_cell = matrix.reshape(n, d, n, d)
    target, source = np.nonzero((by_cell != 0).any(axis=(1, 3)))
    offsets = np.unique(cells.stored_offset(target - source))
    target = offsets[:, None] + np.arange(n)
    inside = (target >= 0) & (target < n) | (cells.topology == "circle")
    # adding into +0.0, as placing does, leaves no -0.0
    stacks = np.where(inside[:, :, None, None], by_cell[target % n, :, np.arange(n), :] + 0.0, 0)
    return dict(zip(offsets.tolist(), stacks))


def assemble_blocks(
    cells: CellStructure, parts: Iterable[tuple[int, int, np.ndarray]]
) -> dict[int, np.ndarray]:
    """The stacks of an operator on equal cells from ``(offset, first cell,
    stack)`` parts: offsets are wrapped on a circle, hops past the ends of a
    line are cleared, and parts that meet are added into +0.0 in their order,
    as placing them would add them."""
    n, d = cells.n_cells, cells.cell_dims[0]
    out: dict[int, np.ndarray] = {}
    for j, first, stack in parts:
        total = out.setdefault(int(cells.stored_offset(j)), np.zeros((n, d, d), dtype=complex))
        total[first : first + len(stack)] += stack
    if cells.topology == "line":
        x = np.arange(n)
        for j, total in out.items():
            total[(x + j < 0) | (x + j >= n)] = 0
    return out


def place_blocks(blocks: Mapping[int, np.ndarray], cells: CellStructure) -> np.ndarray:
    """The matrix of an operator's blocks (see :class:`LatticeOperator`): one
    block is the matrix, and each stack is added into a zero matrix."""
    n = cells.n_cells
    if cells.one_block or n == 1:
        return blocks[0][0] if 0 in blocks else np.zeros((cells.total_dim,) * 2, dtype=complex)
    d = cells.cell_dims[0]
    # a spare cell row takes the blocks of hops past the ends of a line, which are zero
    w = np.zeros(((n + 1) * d, n * d), dtype=complex)
    if blocks:
        x = np.arange(n)
        target, stacks = np.array(list(blocks))[:, None] + x, np.array(list(blocks.values()))
        row = target % n if cells.topology == "circle" else np.where((target >= 0) & (target < n), target, n)
        w.reshape(n + 1, d, n, d)[row, :, x, :] += stacks
    return w[: n * d]


def gather_blocks(op: LatticeOperator, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The dense submatrix of ``op`` on the rows of the cells ``rows`` and the
    columns of the cells ``cols`` (each an ascending array of cell indices),
    read from the stacks: no matrix of the whole lattice is placed."""
    cells = op.cells
    if cells.one_block:
        whole = op.blocks[0][0] if 0 in op.blocks else np.zeros((op.dim,) * 2, dtype=complex)
        return whole[np.ix_(np.flatnonzero(cells.index_mask(rows)), np.flatnonzero(cells.index_mask(cols)))]
    n, d = cells.n_cells, cells.cell_dims[0]
    out = np.zeros((len(rows), d, len(cols), d), dtype=complex)
    if op.blocks:
        pos = np.full(n, -1)
        pos[rows] = np.arange(len(rows))
        target = np.fromiter(op.blocks, int, len(op.blocks))[:, None] + cols
        at = np.where((target >= 0) & (target < n) | (cells.topology == "circle"), pos[target % n], -1)
        hop, col = np.nonzero(at >= 0)
        out[at[hop, col], :, col, :] = np.stack([stack[cols] for stack in op.blocks.values()])[hop, col]
    return out.reshape(len(rows) * d, len(cols) * d)


def scatter_blocks(
    cells: CellStructure,
    rows: np.ndarray,
    cols: np.ndarray,
    adds: Iterable[tuple[dict[int, np.ndarray], np.ndarray]],
) -> None:
    """Add each dense block (rows of the cells ``rows`` <- columns of the
    cells ``cols``, as :func:`gather_blocks` reads it) into its writable
    stacks in place, each cell pair at its stored offset; a missing stack
    starts at +0.0, so no ``-0.0`` enters."""
    if cells.one_block:
        at = np.ix_(np.flatnonzero(cells.index_mask(rows)), np.flatnonzero(cells.index_mask(cols)))
        for stacks, block in adds:
            stacks.setdefault(0, np.zeros((1, cells.total_dim, cells.total_dim), dtype=complex))[0][at] += block
        return
    n, d = cells.n_cells, cells.cell_dims[0]
    # a window holds few cells: a loop over its cell pairs is the cheapest placement
    offsets = cells.stored_offset(rows[:, None] - cols[None, :]).tolist()
    for stacks, block in adds:
        parts = block.reshape(len(rows), d, len(cols), d)
        for a, line in enumerate(offsets):
            for c, (col, j) in enumerate(zip(cols.tolist(), line)):
                if j not in stacks:
                    stacks[j] = np.zeros((n, d, d), dtype=complex)
                stacks[j][col] += parts[a, :, c, :]


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
        flips = np.flatnonzero(inside[1:] != inside[:-1]) + 1
        if self.cells.topology == "circle" and inside[0] != inside[-1]:
            flips = np.concatenate([[0], flips])
        return tuple(flips.tolist())


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
    return LatticeOperator(_run_blocks(op, run, cells), cells, op.band, local_rep, meta, compressed_from=op)


def _run_blocks(op: LatticeOperator, run: list[int], cells: CellStructure) -> dict[int, np.ndarray]:
    """The blocks of ``op`` among the cells ``run``, as blocks of the line ``cells``.

    A parent offset ``c`` reaches the line as ``c`` or, on a circle, as
    ``c -+ n``: each parent block lands once, where both of its cells are in
    the run."""
    if op.cells.one_block or cells.one_block:
        order = np.concatenate([np.arange(op.dim)[op.cells.cell_slice(i)] for i in run])
        return matrix_blocks(op.matrix[np.ix_(order, order)], cells)
    n, m = op.cells.n_cells, len(run)
    shifts = (-n, 0, n) if op.cells.topology == "circle" else (0,)
    j = (np.array(list(op.blocks), dtype=int)[:, None] + shifts).ravel()
    parent = np.repeat(np.arange(len(op.blocks)), len(shifts))
    near = np.abs(j) < m
    j, parent = j[near, None], parent[near]
    pieces = np.array(list(op.blocks.values()))[parent[:, None], np.array(run)]
    x = np.arange(m)
    pieces[(x + j < 0) | (x + j >= m)] = 0
    live = pieces.any(axis=(1, 2, 3))
    return dict(zip(j[live, 0].tolist(), pieces[live]))


def _cell_block_reduce(ufunc: np.ufunc, x: np.ndarray, cells: CellStructure) -> np.ndarray:
    """``ufunc`` reduced over each cell-pair block of ``x``, by ``reduceat`` over
    the cell offsets; a block of a zero-dimensional cell is 0."""
    n = cells.n_cells
    live = np.array(cells.cell_dims) > 0
    out = np.zeros((n, n))
    if live.any():
        starts = np.array(cells.offsets[:-1])[live]
        rows = ufunc.reduceat(x, starts, axis=0)
        out[np.ix_(live, live)] = ufunc.reduceat(rows, starts, axis=1)
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
    SVD one.  The blocks are read from the stacks, offset by offset; one
    block on mixed cells is read cell pair by cell pair.
    """
    cells = op.cells
    n = cells.n_cells
    if cells.one_block:
        owner = np.repeat(np.arange(n), cells.cell_dims)
        a = np.abs(op.matrix)
        big = _cell_block_reduce(np.maximum, a, cells)
        # squares of entries scaled by their block maximum cannot underflow to a false zero
        scale = np.where(big > 0, big, 1.0)[owner][:, owner]
        frob = big * np.sqrt(_cell_block_reduce(np.add, (a / scale) ** 2, cells))
        cell = np.arange(n)
        dist = np.abs(cell[:, None] - cell[None, :])
        if cells.topology == "circle":
            dist = np.minimum(dist, n - dist)
        block = lambda k: op.block(*divmod(int(k), n))
    else:  # scaled by block maxima as above
        offsets = list(op.blocks)
        a = np.abs(np.array(list(op.blocks.values()))).reshape(len(offsets), n, cells.cell_dims[0] ** 2)
        big = a.max(axis=2, initial=0.0)
        frob = big * np.sqrt(((a / np.where(big > 0, big, 1.0)[:, :, None]) ** 2).sum(axis=2))
        dist = np.repeat(np.abs(offsets), n).reshape(big.shape)
        block = lambda k: op.blocks[offsets[k // n]][k % n]
    dist, big, frob = dist.ravel(), big.ravel(), frob.ravel()
    live = big > tol.band * (1 + BAND_SCREEN_SLACK)
    band = int(dist[live].max(initial=0))
    # a nan bound is not dead either: the SVD decides it
    unsure = ~live & ~(frob <= tol.band * (1 - BAND_SCREEN_SLACK)) & (dist > band)
    for k in sorted(np.flatnonzero(unsure), key=lambda k: -dist[k]):
        if spectral_norm(block(k)) > tol.band:
            return int(dist[k])
    return band


# -- gates measured from the cell band -------------------------------------------

# The exact unitarity defect is taken on the cells whose residual rows exceed
# END_CELL_SLACK times the largest row; it stands when the Weyl allowance for
# the rest is at most END_CELL_SLACK times it, else the whole matrix decides.
END_CELL_SLACK = 1e-12

def _once(compute: Callable[[], object]) -> Callable[[], object]:
    """``compute``, run on the first call only."""
    done: list = []

    def value():
        if not done:
            done.append(compute())
        return done[0]

    return value


@dataclass(frozen=True)
class Gate:
    """One residual norm of an operator, measured once.

    ``bound`` is an upper bound on the spectral norm and ``norm(t)`` the norm
    itself, exact enough to compare with ``t``; it is computed on first need.
    """

    bound: float
    norm: Callable[[float], float]

    def screened(self, threshold: float) -> float:
        """The bound if it passes ``threshold`` less ``ADMISSIBILITY_SCREEN_SLACK``
        (so rounding cannot change the verdict), else the norm."""
        if self.bound <= threshold * (1 - ADMISSIBILITY_SCREEN_SLACK):
            return self.bound
        return self.norm(threshold)


@dataclass(frozen=True)
class _BandLayout:
    """Cell indices of the band screens for n cells of band b on a circle or a line."""

    window: np.ndarray  # (n, 2b+1, 4b+1): block (x + i, x + k) among the blocks, else -1
    reach: np.ndarray  # (n, 4b+1): the cell x + k, wrapped; -1 past the ends of a line
    source: np.ndarray  # (2b+1, n): the cell y - j of the block (y - j, y), wrapped


@lru_cache(maxsize=64)
def _band_layout(n: int, b: int, circle: bool) -> _BandLayout:
    x = np.arange(n)
    j = np.arange(-b, b + 1)[:, None]
    i, k = np.arange(-b, b + 1), np.arange(-2 * b, 2 * b + 1)
    rows = x[:, None] + i
    hop = k - i[:, None]
    live = (np.abs(hop) <= b) & ((rows >= 0) & (rows < n) | circle)[:, :, None]
    window = np.where(live, (np.clip(hop, -b, b) + b) * n + (rows % n)[:, :, None], -1)
    reach = x[:, None] + k
    reach = np.where((reach >= 0) & (reach < n) | circle, reach % n, -1)
    layout = _BandLayout(window, reach, (x - j) % n)
    for a in vars(layout).values():
        a.flags.writeable = False
    return layout


def _far_norm(stacks: Mapping[int, np.ndarray], n: int, d: int, b: int) -> float:
    """Frobenius norm of the stacks at offsets beyond ``b``: one sum of squares
    per stack, added in offset order.  A zero stack adds exactly 0.0, so the
    norm keeps its bits whichever way an operator was built or read back."""
    total = 0.0
    for j in sorted(stacks):
        if abs(j) > b:
            total += float(np.vdot(stacks[j], stacks[j]).real)
    # padded as frobenius_bound is, against squares lost to underflow
    return float(np.sqrt(total + (n * d) ** 2 * FLOAT_TINY))


class CellBand:
    """An operator's blocks read as those between cells at most ``band`` apart.

    ``blocks[b + j, x]`` is the block (cell x <- cell x + j) for |j| <= b,
    wrapped on a circle and zero past the ends of a line: one index step from
    the stacks of :class:`LatticeOperator`.  ``offband`` is the Frobenius norm
    of the stacks beyond the band: zero (up to its underflow padding) for a
    walk built with its band, not for a measured or stored matrix.  Mixed or
    zero-dimensional cells and a lattice of at most 4b cells are one cell
    holding the whole matrix, at band 0.
    ``matrix`` is the dense matrix, placed on first read.
    """

    def __init__(self, stacks: Mapping[int, np.ndarray], cells: CellStructure, band: int = 0):
        self.stacks, self.cells = stacks, cells
        n = cells.n_cells
        if cells.one_block or n <= 4 * band:
            n, d, band, circle = 1, cells.total_dim, 0, True
        else:
            d, circle = cells.cell_dims[0], cells.topology == "circle"
        self.n_cells, self.cell_dim, self.band = n, d, band
        self.layout = _band_layout(n, band, circle)

    @cached_property
    def matrix(self) -> np.ndarray:
        m = place_blocks(self.stacks, self.cells)
        m.flags.writeable = False
        return m

    @cached_property
    def blocks(self) -> np.ndarray:
        n, d, b = self.n_cells, self.cell_dim, self.band
        if n == 1:
            return self.matrix[None, None]
        zero = np.zeros((n, d, d), dtype=complex)
        stacks = np.array([self.stacks.get(j, zero) for j in range(-b, b + 1)])
        # stacks[b + j, y] is (y + j <- y); the row of cell x at hop i is the one at j = -i, y = x + i
        return stacks[np.arange(2 * b, -1, -1)[:, None], self.layout.source[::-1]]

    @cached_property
    def offband(self) -> float:
        if self.n_cells == 1:
            return 0.0
        return _far_norm(self.stacks, self.n_cells, self.cell_dim, self.band)

    def one_cell(self) -> "CellBand":
        """The whole matrix as one cell."""
        return self if self.n_cells == 1 else CellBand({0: self.matrix[None]}, CellStructure((len(self.matrix),)))


def measure_unitarity(cb: CellBand) -> Gate:
    """``||W* W - 1||`` from the cell band.

    Rows of cells x-b..x+b and columns of cells x-2b..x+2b around each cell x
    form one ``(n, (2b+1)d, (4b+1)d)`` stack, and one batched product gives
    the row blocks of ``W_b* W_b`` at offsets -2b..2b for the in-band part
    ``W_b`` of ``W``.  With ``F = ||W_b* W_b - 1||_F`` and ``e`` the off-band
    norm, ``||W* W - 1|| <= F + 2 sqrt(1 + F) e + e^2``: the bound.  The norm
    is the largest ``|eigvalsh|`` of the Hermitian residual on the cells it
    reaches (the b end cells of a compressed line), with the Frobenius norm of
    the rest and the off-band term as a Weyl allowance; where that allowance
    is not small, or the threshold lies within it, the whole matrix as one
    cell decides.
    """
    n, d, b = cb.n_cells, cb.cell_dim, cb.band
    layout = cb.layout
    if n == 1:  # the window of the one cell is the cell
        s = cb.blocks[0]
    else:
        blocks = np.concatenate([cb.blocks.reshape((2 * b + 1) * n, d, d), np.zeros((1, d, d), dtype=cb.blocks.dtype)])
        s = blocks[layout.window].transpose(0, 1, 3, 2, 4).reshape(n, (2 * b + 1) * d, (4 * b + 1) * d)
    c = slice(2 * b * d, (2 * b + 1) * d)
    p = s[:, :, c].conj().swapaxes(1, 2) @ s
    p[:, :, c] -= np.eye(d)
    frob = frobenius_bound(p)
    e = cb.offband
    weyl = 2 * np.sqrt(1 + frob) * e + e * e

    def end_cells() -> tuple[float, float]:
        p4 = p.reshape(n, d, 4 * b + 1, d)
        mass = np.einsum("xrks,xrks->xk", p4.real, p4.real) + np.einsum("xrks,xrks->xk", p4.imag, p4.imag)
        row = mass.sum(axis=1)
        reached = np.flatnonzero(row > END_CELL_SLACK**2 * row.max(initial=0.0))
        pos = np.full(n + 1, -1)
        pos[reached] = np.arange(reached.size)
        pick = (pos[layout.reach] >= 0) & (pos[:n, None] >= 0)
        xs, ks = np.nonzero(pick)
        h = np.zeros((reached.size, d, reached.size, d), dtype=p.dtype)
        h[pos[xs], :, pos[layout.reach[xs, ks]], :] = p4[xs, :, ks, :]
        h = h.reshape(reached.size * d, reached.size * d)
        value = float(np.max(np.abs(np.linalg.eigvalsh((h + h.conj().T) / 2)), initial=0.0))
        return value, float(np.sqrt(mass[~pick].sum())) + weyl

    end_cells = _once(end_cells)
    whole = _once(lambda: measure_unitarity(cb.one_cell()).norm(0.0))

    def norm(threshold: float) -> float:
        value, allowance = end_cells()
        if allowance == 0 or allowance <= END_CELL_SLACK * value and abs(value - threshold) > allowance:
            return value
        return whole()

    return Gate(frob + weyl, norm)


def _cell_groups(cb: CellBand, runs: Runs) -> list[tuple[int, int, Runs]]:
    """``(first cell, count, runs)``: each run of equal band cells acts as one
    cell rep, so that a pass over it is one product; one cell carries every run."""
    if cb.n_cells == 1:
        return [(0, 1, runs)]
    return [(start // cb.cell_dim, count, [(0, 1, cell)]) for start, count, cell in runs]


def _admissibility_residual(
    cb: CellBand, groups: list[tuple[int, int, Runs]], name: str, kind: str
) -> np.ndarray:
    """The residual of one symmetry condition on the in-band blocks: ``[j, y]``
    is the block (y - j <- y), from one pass of each run over the rows and one
    over the columns.  As one cell it is the residual matrix itself."""
    n, d, b = cb.n_cells, cb.cell_dim, cb.band
    width = 2 * b + 1
    left = np.empty(cb.blocks.shape, dtype=complex)
    for first, count, group in groups:
        rows = cb.blocks[:, first : first + count].transpose(2, 0, 1, 3).reshape(d, width * count * d)
        part = apply_runs(group, name, rows).reshape(d, width, count, d)
        left[:, first : first + count] = part.transpose(1, 2, 0, 3)
    j = np.arange(width)[:, None]
    moved = left[j, cb.layout.source]
    r = np.empty(moved.shape, dtype=complex)
    for first, count, group in groups:
        cols = moved[:, first : first + count].reshape(width * count * d, d)
        r[:, first : first + count] = times_runs(cols, group, name, adjoint=True).reshape(width, count, d, d)
    adjoint, sign = ADMISSIBILITY[name]
    if kind == "walk" and adjoint:
        target = cb.blocks[::-1].conj().swapaxes(-1, -2)
    else:
        target = cb.blocks[j, cb.layout.source]
    if kind == "walk" or sign > 0:
        r -= target
    else:
        r += target
    return r


def measure_admissibility(cb: CellBand, runs: Runs, kind: str = "walk") -> dict[str, Gate]:
    """Residuals of the symmetry conditions of a walk or Hamiltonian from the cell band.

    ``runs`` are the rep's runs of cells (a dense rep is one run of one
    cell); cells of another dimension than the band's make it one cell.
    Each bound is the Frobenius norm on the in-band blocks plus twice the
    off-band norm (``sigma`` is unitary and cell-local).  The norm is the
    spectral norm of the whole residual.
    """
    if any(cell.dim != cb.cell_dim for _, _, cell in runs):
        cb = cb.one_cell()
    groups = _cell_groups(cb, runs)
    gates = {}
    for name in runs[0][2].ops:
        bound = frobenius_bound(_admissibility_residual(cb, groups, name, kind)) + 2 * cb.offband

        def whole(name=name):
            one = cb.one_cell()
            return spectral_norm(_admissibility_residual(one, _cell_groups(one, runs), name, kind)[0, 0])

        whole = _once(whole)
        gates[name] = Gate(bound, lambda t, whole=whole: whole())
    return gates


def cells_near_bond(cells: CellStructure, bond: int, radius: int) -> tuple[int, ...]:
    """Cells within ``radius`` cells of the bond (radius cells on each side), ascending."""
    n = cells.n_cells
    near = np.arange(bond - radius, bond + radius)
    if cells.topology == "circle":
        return tuple(np.unique(near % n).tolist()) if n else ()
    return tuple(near[(near >= 0) & (near < n)].tolist())


def split_by_weight(
    basis: np.ndarray,
    cells: CellStructure,
    members: Iterable[int],
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Split a subspace by weight inside a cell region.

    Diagonalizes the compression of the region projection onto the span and
    splits at ``SPLIT_THRESHOLD``.  Returns (inside, outside, weights, n_ambiguous);
    the rotated basis columns are eigenvectors of the weight operator, so for
    cell-local symmetries the two parts remain symmetry invariant whenever the
    weights are exactly 0/1.  A ``basis`` that holds only some ``rows`` of the
    space (zero on the others) names them.
    """
    if basis.shape[1] == 0:
        return basis, basis, np.zeros(0), 0
    mask = cells.index_mask(members).astype(float)
    if rows is not None:
        mask = mask[rows]
    w_op = basis.conj().T @ (mask[:, None] * basis)
    w_op = (w_op + w_op.conj().T) / 2
    vals, u = np.linalg.eigh(w_op)
    rotated = basis @ u
    inside = rotated[:, vals >= SPLIT_THRESHOLD]
    outside = rotated[:, vals < SPLIT_THRESHOLD]
    lo, hi = AMBIGUOUS_WEIGHTS
    n_amb = int(np.sum((vals > lo) & (vals < hi)))
    return inside, outside, vals, n_amb
