"""Construction helpers and slow reference oracles shared across the test suite.

Random representations are produced by conjugating a hand-checked normal form
with a Haar unitary, which preserves the defining relations and the index
exactly.  ``locality_profile``, ``reference_dumps`` and ``contraction_path``
are the plain implementations that the fast band measurement, the canonical
JSON encoder and the contraction generator are compared against;
``dense_near_anchors`` (``eig_unitary`` of the whole walk) is the oracle of
the spectra near +-1, ``dense_near_spectrum`` and ``dense_kernel_basis`` (one
``eigh`` of the whole ``Im W``) of the chiral route that halves them, and
``count_in_disk`` (``eigvals``) of the Temple-Kato counts;
``window_eigenspaces`` is the fixed-radius +-1 selection that the
essential-gap cluster of ``si_pm`` is compared against.  The dense routes
that the cell-local, screened admissibility check, the thin-basis proxy
window and the batched gap margin replaced are kept as
``dense_admissibility``, ``drop_window_projectors`` and
``gap_margin_per_momentum``, and the dense rep that the action by runs of
cells replaced as ``dense_rep`` and ``dense_restrict``; the per-momentum
loops that the batched momentum grids replaced are ``bloch_per_momentum``,
``validate_per_momentum``, ``winding_per_momentum`` and
``berry_per_momentum`` (band frames from ``eig_unitary``).  The dense
factor product that the blockwise product and placement of cell blocks
replaced is ``dense_factor_product``, and ``placed_ti`` places a walk's
blocks by Kronecker products.  ``dense_view`` is the dense matrix an
operator was made from (``record_dense_inputs``) or cut from, the oracle of
the stacks an operator holds (``check_stacks``).  The full-size
decoupling that the route on the cut window replaced is ``dense_decoupling``,
with its dense ``ProjectionPair`` and whole alignment polar factor
``dense_rotation``.  The walk constructions ``conjugate_ti``,
``direct_sum_ti`` and ``forget_ti`` and the projection-pair check
``identity_defects`` are used by the tests only.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Sequence

import numpy as np
import pytest
from scipy.linalg import expm

import walkindex.decoupling
import walkindex.lattice
import walkindex.operators

from walkindex.errors import (
    Gapless,
    NonIntegerInvariant,
    NotAdmissible,
    NotUnitary,
    Obstructed,
    RankJump,
    RelationViolation,
    SingularBlock,
    WalkIndexError,
    WindowAmbiguous,
)
from walkindex.decoupling import (
    TRANSFER_MEMBERSHIP,
    TransferModes,
    _transfer_swap,
    attribute_transfers,
    gentle_decoupling,
)
from walkindex.finite import join_crossover
from walkindex.indices import (
    ESSENTIAL_KERNEL_CEILING,
    WINDOW_AGREEMENT,
    _kernel_cluster,
    _proxy_members,
    contract_perturbation,
    twiddle_rep,
)
from walkindex.lattice import (
    CellProjection,
    CellStructure,
    LatticeOperator,
    LocalSymmetryRep,
    arc_projection,
    half_space_projection,
    half_spaces,
    measured_band,
    place_blocks,
    scatter_blocks,
    second_bond,
    split_by_weight,
)
from walkindex.operators import (
    UnitaryEigen,
    admissible_hamiltonian_projection,
    check_unitary,
    eig_unitary,
    imaginary_part,
    phase_window,
    polar_isometry,
)
from walkindex.symmetry import (
    ADMISSIBILITY,
    IndexGroup,
    IndexValue,
    SymmetryClass,
    SymmetryOperator,
    SymmetryRep,
    block_diagonal,
    chiral_sectors,
    forget_rep,
    screened_norm,
    spectral_norm,
    unitarity_defect,
)
from walkindex.tolerances import DEFAULT_TOL, Tolerances
from walkindex.walks import (
    MAX_MOMENTUM_SAMPLES,
    CoinFactor,
    InvariantReport,
    ShiftFactor,
    TIWalk,
    _kramers_frame,
    build_lattice,
    make_doubled,
    make_generating_example,
    make_split_step,
)

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def haar_unitary(gen: np.random.Generator, d: int) -> np.ndarray:
    z = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def symplectic_j(d: int) -> np.ndarray:
    """Block matrix [[0, -1], [1, 0]] acting on consecutive pairs."""
    assert d % 2 == 0
    j = np.zeros((d, d))
    for k in range(0, d, 2):
        j[k, k + 1] = -1.0
        j[k + 1, k] = 1.0
    return j


def normal_form_rep(cls: SymmetryClass, p: int = 1, q: int = 1) -> SymmetryRep:
    """A hand-verified representation of each class.

    For the chiral classes ``p``/``q`` are the chiral sector dimensions
    (pairs for CII); for D/AI the dimension is ``p``; for C/AII/CI/DIII
    the dimension is ``2p``.
    """
    C = SymmetryClass
    if cls is C.A:
        return SymmetryRep.from_matrices(cls, p)
    if cls is C.D:
        return SymmetryRep.from_matrices(cls, p, eta=np.eye(p))
    if cls is C.AI:
        return SymmetryRep.from_matrices(cls, p, tau=np.eye(p))
    if cls is C.C:
        return SymmetryRep.from_matrices(cls, 2 * p, eta=symplectic_j(2 * p))
    if cls is C.AII:
        return SymmetryRep.from_matrices(cls, 2 * p, tau=symplectic_j(2 * p))
    if cls is C.AIII:
        g = np.diag([1.0] * p + [-1.0] * q)
        return SymmetryRep.from_matrices(cls, p + q, gamma=g)
    if cls is C.BDI:
        g = np.diag([1.0] * p + [-1.0] * q)
        return SymmetryRep.from_matrices(cls, p + q, eta=g, tau=np.eye(p + q), gamma=g)
    if cls is C.CI:
        j = symplectic_j(2 * p)
        return SymmetryRep.from_matrices(cls, 2 * p, eta=j, tau=np.eye(2 * p), gamma=j)
    if cls is C.CII:
        d = 2 * p + 2 * q
        g = np.diag([1.0] * (2 * p) + [-1.0] * (2 * q))
        t = np.zeros((d, d))
        t[: 2 * p, : 2 * p] = symplectic_j(2 * p)
        t[2 * p :, 2 * p :] = symplectic_j(2 * q)
        return SymmetryRep.from_matrices(cls, d, eta=-g @ t, tau=t, gamma=g)
    if cls is C.DIII:
        j = symplectic_j(2 * p)
        return SymmetryRep.from_matrices(cls, 2 * p, eta=np.eye(2 * p), tau=j, gamma=j)
    raise ValueError(cls)


def random_rep(cls: SymmetryClass, gen: np.random.Generator, p: int = 1, q: int = 1) -> SymmetryRep:
    base = normal_form_rep(cls, p, q)
    return base.conjugated(haar_unitary(gen, base.dim))


def monomial(gen: np.random.Generator, d: int) -> np.ndarray:
    """A permutation with phases in {1, i, -1, -i}; conjugating by it keeps entries exact."""
    u = np.zeros((d, d), dtype=complex)
    u[gen.permutation(d), np.arange(d)] = 1j ** gen.integers(0, 4, size=d)
    return u


def cell_layouts(cls: SymmetryClass, gen: np.random.Generator, cells: str) -> dict[str, tuple]:
    """Per-cell reps: one run, two runs of equal dims, and three runs of mixed dims.

    ``cells`` picks the cell matrices: ``"signed"`` keeps the normal forms
    (signed permutations), ``"phase"`` conjugates them by monomials (phase
    permutations) and ``"haar"`` by Haar unitaries.  With the first two every
    product by a cell matrix is exact, so a route by runs of cells and the
    dense route round identically.
    """

    def cell(p):
        base = normal_form_rep(cls, p, 1)
        if cells == "signed":
            return base
        u = monomial(gen, base.dim) if cells == "phase" else haar_unitary(gen, base.dim)
        return base.conjugated(u)

    a, a2, b = cell(1), cell(1), cell(2)
    n = int(gen.integers(3, 7))
    return {
        "uniform": (a,) * n,
        "two_runs": (a,) * 2 + (a2,) * n,
        "mixed_dims": (a, a, b, b, b, a),
    }


def random_admissible_hamiltonian(rep: SymmetryRep, gen: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    k = gen.normal(size=(rep.dim, rep.dim)) + 1j * gen.normal(size=(rep.dim, rep.dim))
    return scale * admissible_hamiltonian_projection(k, rep)


def random_admissible_walk(rep: SymmetryRep, gen: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """A random admissible unitary, gapless in general."""
    return expm(1j * random_admissible_hamiltonian(rep, gen, scale))


def window_eigenspaces(w: np.ndarray, window: float) -> tuple[np.ndarray, np.ndarray]:
    """Bases of the -1 and +1 eigenspaces within ``window`` radians of +-1.

    ``eig_unitary`` plus a fixed eigenphase radius; an eigenvalue on the
    window edge raises ``WindowAmbiguous``, so this oracle does not answer
    there.
    """
    tol = DEFAULT_TOL.with_(exact=window)
    eig = eig_unitary(w, tol)
    return tuple(eig.vectors[:, phase_window(eig, t, tol=tol)] for t in (-1.0, 1.0))


def dense_near_anchors(w: np.ndarray, window: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenpairs within ``window`` of +1 or -1 from ``eig_unitary`` of the whole matrix.

    The route ``crossover_sweep`` took before ``near_spectrum``; the third
    value is its ``delta = log1p(-max |Re lambda|)``, rounding noise (or
    ``-inf``) once that distance falls below about e^-30.
    """
    eig = eig_unitary(w)
    near = (np.abs(eig.values - 1.0) < window) | (np.abs(eig.values + 1.0) < window)
    with np.errstate(divide="ignore"):
        delta = float(np.log1p(-min(float(np.max(np.abs(eig.values.real))), 1.0)))
    return eig.values[near], eig.vectors[:, near], delta


def conjugate_ti(ti: TIWalk, u: np.ndarray) -> TIWalk:
    """Conjugate every cell by the same unitary (preserves all invariants)."""
    blocks = {j: u @ b @ u.conj().T for j, b in ti.blocks.items()}
    return TIWalk(f"{ti.name}~", ti.cls, ti.cell_dim, blocks, ti.cell_rep.conjugated(u), None, dict(ti.params))


def direct_sum_ti(a: TIWalk, b: TIWalk) -> TIWalk:
    """Cellwise direct sum of two walks of the same class."""
    if a.cls is not b.cls:
        raise RelationViolation(f"cannot sum classes {a.cls.value} and {b.cls.value}")
    za = np.zeros((a.cell_dim, a.cell_dim))
    zb = np.zeros((b.cell_dim, b.cell_dim))
    blocks = {j: block_diagonal((a.blocks.get(j, za), b.blocks.get(j, zb))) for j in set(a.blocks) | set(b.blocks)}
    rep = a.cell_rep.direct_sum(b.cell_rep)
    return TIWalk(f"{a.name}+{b.name}", a.cls, a.cell_dim + b.cell_dim, blocks, rep, None, {})


def forget_ti(ti: TIWalk, target: SymmetryClass, tol: Tolerances = DEFAULT_TOL) -> TIWalk:
    """Reinterpret the walk in a weaker symmetry class."""
    rep = forget_rep(ti.cell_rep, target, tol)
    return TIWalk(f"{ti.name}->{target.value}", target, ti.cell_dim, ti.blocks, rep, ti.factors, dict(ti.params))


def dense_factor_product(factors: Sequence, cells: CellStructure) -> np.ndarray:
    """A factor product as N x N factor matrices, each times the running product.

    A factor is a ``ShiftFactor`` (circles only), a ``CoinFactor`` or a
    sequence of per-cell coins.
    """
    n = cells.n_cells
    mats = []
    for f in factors:
        m = np.zeros((cells.total_dim, cells.total_dim), dtype=complex)
        if isinstance(f, ShiftFactor):
            for x in range(n):
                src = cells.cell_slice(x).start
                tgt = cells.cell_slice((x + f.step) % n).start
                for c in range(cells.cell_dims[x]):
                    if c in f.components:
                        m[tgt + c, src + c] = 1.0
                    else:
                        m[src + c, src + c] = 1.0
        else:
            coins = [f.matrix] * n if isinstance(f, CoinFactor) else list(f)
            for x in range(n):
                m[cells.cell_slice(x), cells.cell_slice(x)] = coins[x]
        mats.append(m)
    return reduce(lambda acc, m: m @ acc, mats, np.eye(cells.total_dim, dtype=complex))


@dataclass(frozen=True)
class ProjectionPair:
    """A region projection ``P`` with its image ``Q = W P W*`` under a walk, both dense.

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


def dense_rotation(pair: ProjectionPair, transfer_basis: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Polar factor of the whole alignment map, compressed off ``transfer_basis`` first."""
    perp = np.eye(pair.dim) - transfer_basis @ transfer_basis.conj().T
    return polar_isometry(perp @ pair.alignment() @ perp, tol.ker)


def dense_decoupling(
    op: LatticeOperator, cut: int, second_cut: int | None = None, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, tuple[int, int]]]:
    """``(V, W', K, transfer counts)`` of ``gentle_decoupling`` by full-size matrices.

    The route the window route replaced: dense ``P`` and ``Q``, one ``eigh``
    of the whole ``P - Q``, the polar factor of the whole alignment map
    (:func:`dense_rotation`) plus the transfer swap, and the whole-space
    ``contract_perturbation`` of ``V`` against the dense companion rep.
    """
    m = np.asarray(op.matrix, dtype=complex)
    second = second_bond(op.cells, cut, second_cut)
    proj = half_space_projection(op.cells, cut) if second is None else arc_projection(op.cells, cut, second)
    pair = ProjectionPair.from_walk(m, proj)
    vals, vecs = np.linalg.eigh(pair.odd_part())
    incoming = vecs[:, vals > 1.0 - TRANSFER_MEMBERSHIP]
    outgoing = vecs[:, vals < -1.0 + TRANSFER_MEMBERSHIP]
    basis = np.hstack([incoming, outgoing])
    # one group of every bond, whose window and reach are the whole lattice
    every_cell = np.arange(op.cells.n_cells)
    modes = TransferModes(
        basis, (incoming.shape[1], outgoing.shape[1]), proj.cut_bonds(),
        every_cell, every_cell, m, proj.mask().astype(float), op.cells,
    )
    counts = attribute_transfers((modes,), op.cells, op.band + 1)
    for bond, (n_in, n_out) in counts.items():
        if n_in != n_out:
            raise Obstructed(
                f"net transfer count {n_in - n_out} at bond {bond}; "
                "no local correction can close this cut"
            )
    trep = twiddle_rep(LatticeOperator.one_cell(m), op.local_rep, tol)
    v = dense_rotation(pair, basis, tol)
    if basis.shape[1]:
        swap = _transfer_swap(trep.restrict(basis, tol), modes, op.local_rep.cls, tol)
        v = v + basis @ swap @ basis.conj().T
    return v, v @ m, contract_perturbation(v, trep, tol), counts


def identity_defects(pair: ProjectionPair) -> dict[str, float]:
    """Residuals of the algebraic identities a :class:`ProjectionPair` must satisfy."""
    a, b, x = pair.odd_part(), pair.even_part(), pair.alignment()
    eye = np.eye(pair.dim)
    pq = pair.p @ pair.q
    vals = np.linalg.eigvals(x)
    return {
        "anticommutator": spectral_norm(a @ b + b @ a),
        "pythagoras": spectral_norm(a @ a + b @ b - eye),
        "align_into": spectral_norm(x @ pair.q - pq),
        "align_out_of": spectral_norm(pair.p @ x - pq),
        "reflection_product": spectral_norm((eye - 2 * pair.p) @ (eye - 2 * pair.q) - (2 * x - eye)),
        "normality": spectral_norm(x @ x.conj().T - x.conj().T @ x),
        "spectral_circle": float(np.max(np.abs(np.abs(vals - 0.5) - 0.5))) if vals.size else 0.0,
    }


def count_in_disk(u: np.ndarray, theta: complex, radius: float) -> int:
    """Eigenvalues of a normal operator in a closed disk, counted from ``eigvals``."""
    vals = np.linalg.eigvals(np.asarray(u, dtype=complex))
    return int(np.sum(np.abs(vals - theta) <= radius))


def contraction_path(generator: np.ndarray, steps: int) -> list[np.ndarray]:
    """``exp(i(1-t)K)`` at ``steps + 1`` even times ``t`` in [0, 1], by scipy ``expm``.

    The reference for the contraction path that a generator from
    ``contract_perturbation`` stands for: sample 0 is ``V``, the last is 1.
    """
    return [expm(1j * (1 - t) * generator) for t in np.linspace(0.0, 1.0, steps + 1)]


ALL_CLASSES = list(SymmetryClass)

CHIRAL_PLUS = [SymmetryClass.AIII, SymmetryClass.BDI, SymmetryClass.CII]


def doubled_ci() -> TIWalk:
    """Two copies of the generating walk in class CI: a symplectic particle-hole
    pairs the copies, time reversal acts on each, and gamma squares to -1.
    No builtin walk, nor a weaker class of one, is of class CI."""
    base = make_generating_example()
    e = base.cell_rep.ops["eta"].matrix
    zero = np.zeros((2, 2))
    eta = SymmetryOperator(np.block([[zero, -e], [e, zero]]).astype(complex), True)
    tau = SymmetryOperator(block_diagonal([base.cell_rep.ops["tau"].matrix] * 2), True)
    rep = SymmetryRep(SymmetryClass.CI, {"eta": eta, "tau": tau, "gamma": eta.compose(tau)}, 4)
    rep.validate()
    blocks = {j: block_diagonal((b, b)) for j, b in base.blocks.items()}
    return TIWalk("doubled_ci", SymmetryClass.CI, 4, blocks, rep, None, {})


_C = SymmetryClass
# one walk of each of the ten classes: builtins, the doubled walks, weaker
# classes of them by forget_rep, and the doubled CI walk
TEN_CLASS_WALKS = {
    _C.BDI: lambda: make_generating_example(),
    _C.AIII: lambda: forget_ti(make_split_step(9 * np.pi / 32, 7 * np.pi / 32), _C.AIII),
    _C.D: lambda: forget_ti(make_generating_example(True), _C.D),
    _C.AI: lambda: forget_ti(make_split_step(-5 * np.pi / 16, 2 * np.pi / 16), _C.AI),
    _C.A: lambda: forget_ti(make_generating_example(), _C.A),
    _C.CII: lambda: make_doubled("CII", True),
    _C.C: lambda: forget_ti(make_doubled("CII"), _C.C),
    _C.AII: lambda: forget_ti(make_doubled("DIII"), _C.AII),
    _C.DIII: lambda: make_doubled("DIII"),
    _C.CI: doubled_ci,
}


def zero_dim_rep(cls: SymmetryClass) -> SymmetryRep:
    """A rep of class ``cls`` on a zero-dimensional cell."""
    rep = normal_form_rep(cls)
    ops = {name: SymmetryOperator(np.zeros((0, 0), dtype=complex), op.antiunitary) for name, op in rep.ops.items()}
    return SymmetryRep(cls, ops, 0)


def with_cell_bases(op: LatticeOperator, gen: np.random.Generator) -> LatticeOperator:
    """The walk in a random basis of each cell: every cell has a rep of its own."""
    us = [haar_unitary(gen, d) for d in op.cells.cell_dims]
    v = np.zeros((op.dim, op.dim), dtype=complex)
    for i, u in enumerate(us):
        v[op.cells.cell_slice(i), op.cells.cell_slice(i)] = u
    per_cell = tuple(r.conjugated(u) for r, u in zip(op.local_rep.per_cell, us))
    rep = LocalSymmetryRep(op.local_rep.cls, per_cell)
    return LatticeOperator.from_matrix(v @ op.matrix @ v.conj().T, op.cells, op.band, rep)


def mixed_cell_walk(cls: SymmetryClass, cell: SymmetryRep, gen: np.random.Generator) -> LatticeOperator:
    """An admissible walk of band 1 on a line of cells of mixed and zero dimension."""
    per_cell = (cell, zero_dim_rep(cls), cell, cell, zero_dim_rep(cls), cell)
    local = LocalSymmetryRep(cls, per_cell)
    cells = CellStructure(tuple(r.dim for r in per_cell), "line")
    w = random_admissible_walk(local.assembled(), gen, scale=0.5)
    return LatticeOperator.from_matrix(w, cells, 1, local)


def record_dense_inputs(monkeypatch) -> dict[int, tuple[LatticeOperator, np.ndarray]]:
    """``(operator, matrix)`` of every ``LatticeOperator.from_matrix`` call from
    now on, by the id of the operator returned (which the entry keeps alive).
    An operator that ``from_blocks`` makes of stacks that a decoupling added
    window blocks into (V, W' and K) enters with its first stacks placed and
    each window block added by ``np.ix_``."""
    inputs: dict[int, tuple[LatticeOperator, np.ndarray]] = {}
    scattered: dict[int, tuple[dict, np.ndarray]] = {}
    from_matrix, from_blocks = LatticeOperator.from_matrix.__func__, LatticeOperator.from_blocks.__func__

    def recording(cls, matrix, *args, **kwargs):
        op = from_matrix(cls, matrix, *args, **kwargs)
        inputs[id(op)] = (op, np.array(matrix, dtype=complex))
        return op

    def scattering(cells, rows, cols, adds):
        at = np.ix_(*(np.flatnonzero(cells.index_mask(c)) for c in (rows, cols)))
        for stacks, block in adds:
            if id(stacks) not in scattered:
                first = {j: stack.copy() for j, stack in stacks.items()}
                scattered[id(stacks)] = (stacks, np.array(place_blocks(first, cells)))
            scattered[id(stacks)][1][at] += block
        return scatter_blocks(cells, rows, cols, adds)

    def made(cls, blocks, *args, **kwargs):
        op = from_blocks(cls, blocks, *args, **kwargs)
        if id(blocks) in scattered:
            inputs[id(op)] = (op, scattered.pop(id(blocks))[1])
        return op

    monkeypatch.setattr(LatticeOperator, "from_matrix", classmethod(recording))
    monkeypatch.setattr(LatticeOperator, "from_blocks", classmethod(made))
    monkeypatch.setattr(walkindex.decoupling, "scatter_blocks", scattering)
    return inputs


def dense_view(op: LatticeOperator, inputs: Mapping[int, tuple[LatticeOperator, np.ndarray]]) -> np.ndarray:
    """The dense oracle of ``op.matrix``: the matrix recorded for it in ``inputs``,
    else its parent's oracle compressed to its cells by ``np.ix_``."""
    if id(op) in inputs:
        return inputs[id(op)][1]
    parent = op.compressed_from
    order = np.concatenate([np.arange(parent.dim)[parent.cells.cell_slice(i)] for i in op.meta["parent_cells"]])
    return dense_view(parent, inputs)[np.ix_(order, order)]


def placed_ti(ti: TIWalk, cells: CellStructure) -> np.ndarray:
    """A walk's blocks on a circle or a line of equal cells, one Kronecker
    product of a 0/1 shift and a block per offset."""
    n = cells.n_cells
    w = np.zeros((cells.total_dim,) * 2, dtype=complex)
    for j, b in ti.blocks.items():
        shift = np.zeros((n, n))
        for x in range(n):
            if cells.topology == "circle" or 0 <= x + j < n:
                shift[(x + j) % n, x] = 1.0
        w += np.kron(shift, b)
    return w


# the names stack_fuzz_cases gives over the ten classes
STACK_CASES = {
    "built circle", "built line", "piece", "short circle", "squared", "W'", "V",
    "circle join", "line join", "circle block join", "line block join",
}


def stack_fuzz_cases(cls: SymmetryClass, ti: TIWalk, gen: np.random.Generator, inputs):
    """``(name, operator)`` of the ways an operator is made: built circles and
    lines (whose factor product, or else block placement, enters ``inputs``),
    their compressed pieces, a circle of at most 4b cells, a squared walk of
    band 2b, a decoupling's W' and V, a coin-level circle join and a line join
    of the walk with itself, and the block-diagonal join of two decoupled
    segments (walks without factors).  ``inputs`` is from
    :func:`record_dense_inputs`; a case that refuses is left out."""
    b = ti.band

    def built(n: int, topology: str) -> LatticeOperator:
        op = build_lattice(ti, n, topology)
        circle = CellStructure.uniform(n, ti.cell_dim, "circle")
        if ti.factors is None:
            dense = placed_ti(ti, op.cells)
        else:
            dense = dense_factor_product(ti.factors, circle)
            if topology == "line":
                cell = np.arange(op.dim) // ti.cell_dim
                dense = np.where(np.abs(cell[:, None] - cell[None, :]) <= b, dense, 0)
        inputs[id(op)] = (op, dense)
        return op

    n = int(gen.integers(4 * b + 2, 11))
    ring, line = built(n, "circle"), built(n, "line")
    yield "built circle", ring
    yield "built line", line
    cut = int(gen.integers(1, n))
    for piece in half_spaces(ring, cut) + half_spaces(line, cut):
        yield "piece", piece
    yield "short circle", built(int(gen.integers(2 * b + 1, 4 * b + 1)), "circle")
    yield "squared", LatticeOperator.from_matrix(ring.matrix @ ring.matrix, ring.cells, 2 * b, ring.local_rep)
    try:
        res = gentle_decoupling(ring, 0)
    except WalkIndexError:
        pass
    else:
        yield "W'", res.w_prime
        yield "V", res.v
    a, c = (int(v) for v in gen.integers(3, 6, size=2))
    for topology in ("circle", "line"):
        try:
            joined = join_crossover(ti, ti, a, c, topology)
        except WalkIndexError:
            continue
        if ti.factors is not None and topology == "circle":
            inputs[id(joined)] = (joined, dense_factor_product(ti.factors, joined.cells))
            yield "circle join", joined
        elif ti.factors is not None:
            yield "line join", joined
        else:
            # the last two decoupled walks (V and K carry no rep) were the two
            # segments' W', each cut from cell 0 of its ring
            walks = [m for op, m in inputs.values() if op.local_rep is not None][-2:]
            corners = [m[: k * ti.cell_dim, : k * ti.cell_dim] for m, k in zip(walks, (a, c))]
            inputs[id(joined)] = (joined, block_diagonal(corners))
            yield f"{topology} block join", joined


def check_stacks(op: LatticeOperator, dense: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> None:
    """An operator's stacks against the dense oracle: ``.matrix`` is ``dense``
    bit for bit, the stacks of ``from_matrix(op.matrix)`` are its own, the
    off-band norm is the dense one (up to its underflow padding) and, bit for
    bit, that of ``from_matrix(op.matrix)``, and the measured band is the SVD
    profile's."""
    assert np.array_equal(op.matrix, dense)
    again = LatticeOperator.from_matrix(op.matrix, op.cells, op.band)
    assert set(again.blocks) <= set(op.blocks)
    for j, stack in op.blocks.items():
        assert np.array_equal(again.blocks.get(j, np.zeros_like(stack)), stack), j
    assert op.cell_band.offband == pytest.approx(dense_offband(op), rel=1e-12, abs=1e-140)
    assert op.cell_band.offband == again.cell_band.offband
    assert measured_band(op, tol) == profile_band(op, tol.band)


def record_gate_measurements(monkeypatch) -> dict[str, list[np.ndarray]]:
    """The matrix of every unitarity and admissibility measurement from now on, by gate."""
    seen: dict[str, list[np.ndarray]] = {"unitarity": [], "admissibility": []}
    for gate, matrices in seen.items():
        name = f"measure_{gate}"
        original = getattr(walkindex.lattice, name)

        def recording(band, *args, _original=original, _matrices=matrices, **kwargs):
            _matrices.append(band.matrix)
            return _original(band, *args, **kwargs)

        # operators imports measure_admissibility for a rep other than the operator's own
        for module in (walkindex.lattice, walkindex.operators):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording)
    return seen


# -- reference oracles ------------------------------------------------------------


def locality_profile(op: LatticeOperator) -> dict[int, float]:
    """Largest block spectral norm at each hopping distance, one SVD per block.

    Distances are signed cell offsets; on a circle they wrap to the shorter
    direction, ties going to the positive side.
    """
    n = op.cells.n_cells
    out: dict[int, float] = {}
    for i in range(n):
        for j in range(n):
            if op.cells.topology == "circle":
                d = (i - j) % n
                if d > n // 2:
                    d -= n
            else:
                d = i - j
            out[d] = max(out.get(d, 0.0), spectral_norm(op.block(i, j)))
    return dict(sorted(out.items()))


def profile_band(op: LatticeOperator, band_tol: float) -> int:
    """The band read off :func:`locality_profile`: largest |offset| above ``band_tol``."""
    live = [abs(d) for d, v in locality_profile(op).items() if v > band_tol]
    return max(live) if live else 0


def dense_offband(op: LatticeOperator) -> float:
    """Frobenius norm of the entries a stored operator drops: those between cells
    more than ``op.band`` apart, by one N x N mask.  Mixed or zero-dimensional
    cells and a lattice of at most 4 band cells are stored whole and drop none."""
    cells = op.cells
    n, dims = cells.n_cells, set(cells.cell_dims)
    if len(dims) != 1 or 0 in dims or n <= 4 * op.band:
        return 0.0
    x = np.arange(n)
    dist = np.abs(x[:, None] - x[None, :])
    if cells.topology == "circle":
        dist = np.minimum(dist, n - dist)
    far = np.kron(dist > op.band, np.ones((dims.pop(),) * 2, dtype=bool))
    return float(np.linalg.norm(op.matrix[far]))


def _reference_float(x: float) -> str:
    if not np.isfinite(x):
        return json.dumps(str(x))
    return format(float(x), ".12g")


def reference_dumps(obj) -> str:
    """Canonical JSON by plain recursion over abstract types, one check per entry."""
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, enum.Enum):
        return reference_dumps(obj.value)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _reference_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_reference_float(obj.real)},{_reference_float(obj.imag)}]"
    if isinstance(obj, np.ndarray):
        return reference_dumps(obj.tolist())
    if isinstance(obj, Mapping):
        items = sorted(((str(k), v) for k, v in obj.items()), key=lambda kv: kv[0])
        body = ",".join(f"{json.dumps(k)}:{reference_dumps(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, Sequence):
        return "[" + ",".join(reference_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dense_unitarity(w: np.ndarray) -> float:
    """``||W* W - 1||`` by one N x N product and its SVD."""
    return spectral_norm(w.conj().T @ w - np.eye(len(w)))


def cell_block_reduce_at(ufunc: np.ufunc, x: np.ndarray, cells: CellStructure) -> np.ndarray:
    """``ufunc`` over each cell-pair block of ``x`` by two unbuffered ``ufunc.at`` passes."""
    owner = np.repeat(np.arange(cells.n_cells), cells.cell_dims)
    rows = np.zeros((cells.n_cells, x.shape[1]))
    ufunc.at(rows, owner, x)
    out = np.zeros((cells.n_cells, cells.n_cells))
    ufunc.at(out.T, owner, rows.T)
    return out


def dense_admissibility(w: np.ndarray, rep: SymmetryRep, kind: str = "walk") -> dict[str, float]:
    """Spectral norm of each symmetry residual, conjugating by the dense N x N operators."""
    res = {}
    for name, op in rep.ops.items():
        adjoint, sign = ADMISSIBILITY[name]
        target = (w.conj().T if adjoint else w) if kind == "walk" else sign * w
        res[name] = spectral_norm(op.conjugate(w) - target)
    return res


def dense_rep(op: LatticeOperator) -> SymmetryRep:
    """The cell-local rep of a lattice operator as one dense N x N rep."""
    return op.local_rep.assembled()


def dense_restrict(rep: SymmetryRep, basis: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SymmetryRep:
    """Restriction by the dense operators: every invariance defect first, each
    by one SVD, then the compressions."""
    images = {name: op.matrix @ (basis.conj() if op.antiunitary else basis) for name, op in rep.ops.items()}
    for name, image in images.items():
        defect = np.linalg.norm(image - basis @ (basis.conj().T @ image), 2)
        if defect > tol.adm:
            raise NotAdmissible(f"subspace not invariant under {name}: defect {defect:.3e}")
    ops = {name: SymmetryOperator(basis.conj().T @ images[name], op.antiunitary) for name, op in rep.ops.items()}
    return SymmetryRep(rep.cls, ops, basis.shape[1])


def pm_one_gap(w: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float:
    """Smallest distance from +1 or -1 of an eigenvalue that is not within ``tol.exact`` of it."""
    vals = np.linalg.eigvals(w)
    margins = []
    for target in (1.0, -1.0):
        dist = np.abs(vals - target)
        rest = dist[dist > tol.exact]
        margins.append(float(rest.min()) if rest.size else 2.0)
    return min(margins)


def dense_kernel_cluster(h: np.ndarray, ceiling: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Positions of the essential kernel of a Hermitian matrix, from all its eigenvalues.

    The oracle of ``indices._gap_certified`` and of the chiral route: the
    kernel search they screen or halve, ``_kernel_cluster`` on the
    ``eigvalsh`` values, with no screen.
    """
    return _kernel_cluster(np.linalg.eigvalsh(h), tol, ceiling)


def dense_kernel_basis(h: np.ndarray, ceiling: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Eigenvectors of the essential kernel of a Hermitian matrix, from one ``eigh``."""
    vals, vecs = np.linalg.eigh(h)
    return vecs[:, _kernel_cluster(vals, tol, ceiling)]


def dense_near_spectrum(
    m: np.ndarray,
    anchor: complex = 1.0,
    tol: Tolerances = DEFAULT_TOL,
    radius: float | None = None,
    ceiling: float = ESSENTIAL_KERNEL_CEILING,
) -> tuple[UnitaryEigen, float]:
    """``near_spectrum`` by one ``eigh`` of the whole ``Im(conj(anchor) W)``: the
    route every class took before the chiral one, kept as its oracle."""
    s, vecs = np.linalg.eigh(imaginary_part(m if anchor == 1 else np.conj(anchor) * m))
    if radius is None:
        keep = _kernel_cluster(s, tol, ceiling)
    else:
        reach = radius * np.sqrt(1.0 - radius**2 / 4) if radius < np.sqrt(2.0) else np.inf
        keep = np.abs(s) <= reach
    q, _ = np.linalg.qr(vecs[:, keep])
    image = m @ q
    c = q.conj().T @ image
    residual = spectral_norm(image - q @ c)
    assert residual <= max(tol.eig, 1e-12 * m.shape[0]), residual
    eig = eig_unitary(c, tol)
    near = UnitaryEigen(eig.values, q @ eig.vectors, residual + eig.residual)
    return near, float(np.min(np.abs(s), initial=np.inf))


def drop_window_projectors(
    basis: np.ndarray, cells: CellStructure, band: int, what: str
) -> np.ndarray:
    """Proxy-window attribution comparing the N x N projectors of the dropped parts.

    The same radius scan as ``indices._drop_window``; two radii agree when
    ``||P_r - P_s|| <= WINDOW_AGREEMENT``.
    """
    if basis.shape[1] == 0 or not cells.proxy_ends:
        return basis
    n = cells.n_cells
    r_lo = band + 1
    r_hi = max(r_lo, (n - 1) // 2 if len(cells.proxy_ends) == 2 else (n + 1) // 2)
    kept = dropped = None
    for r in range(r_lo, r_hi + 1):
        inside, outside, _, n_amb = split_by_weight(basis, cells, _proxy_members(cells, r))
        if n_amb:
            continue
        proj = inside @ inside.conj().T
        if dropped is None:
            kept, dropped = outside, proj
        elif spectral_norm(proj - dropped) > WINDOW_AGREEMENT:
            raise WindowAmbiguous(
                f"attribution of {what} modes to the proxy ends depends on "
                f"the window radius (radii {r_lo}..{r_hi})"
            )
    if kept is None:
        raise WindowAmbiguous(
            f"{what} modes straddle every proxy window (radii {r_lo}..{r_hi})"
        )
    return kept


def gap_margin_per_momentum(ti: TIWalk) -> float:
    """``walks.ti_gap_margin`` (not strict) with one ``eigvals`` call per momentum."""
    n = 256
    prev = None
    while True:
        margin = np.inf
        for k in -np.pi + 2 * np.pi * np.arange(n) / n:
            vals = np.linalg.eigvals(ti.bloch(k))
            margin = min(margin, float(np.min(np.abs(vals - 1))), float(np.min(np.abs(vals + 1))))
        if prev is not None and (abs(margin - prev) <= 0.01 * max(prev, 1e-12) or n >= MAX_MOMENTUM_SAMPLES):
            return margin
        prev = margin
        n *= 2


def bloch_per_momentum(ti: TIWalk, k: float) -> np.ndarray:
    """``W(k)`` accumulated block by block with a scalar phase per block."""
    w = np.zeros((ti.cell_dim, ti.cell_dim), dtype=complex)
    for j, b in ti.blocks.items():
        w += b * np.exp(1j * j * k)
    return w


def validate_per_momentum(ti: TIWalk, tol: Tolerances = DEFAULT_TOL) -> float:
    """``walks.validate_ti`` with one unitarity check, its exact defect and one norm per
    momentum and operator (``check_unitary`` returns a bound when it passes)."""
    worst = 0.0
    for k in np.linspace(-np.pi, np.pi, 17):
        wk = bloch_per_momentum(ti, k)
        check_unitary(LatticeOperator.one_cell(wk), tol, what=f"W({k:.3f})")
        worst = max(worst, unitarity_defect(wk))
        wmk = bloch_per_momentum(ti, -k)
        for name, op in ti.cell_rep.ops.items():
            adjoint, _ = ADMISSIBILITY[name]
            moved = op.conjugate(wmk if op.antiunitary else wk)
            worst = max(worst, spectral_norm(moved - (wk.conj().T if adjoint else wk)))
    if worst > tol.adm:
        raise RelationViolation(f"momentum-space symmetry residual {worst:.3e}")
    return worst


def validate_screened_per_momentum(ti: TIWalk, tol: Tolerances = DEFAULT_TOL) -> float:
    """``walks.validate_ti`` one momentum at a time, each residual screened by the
    batched rule of ``screened_norm`` applied to a one-matrix stack."""
    worst = 0.0
    for k in np.linspace(-np.pi, np.pi, 17):
        wk = bloch_per_momentum(ti, k)
        defect = unitarity_defect(wk[None], min(tol.unit, tol.adm))[0]
        if defect > tol.unit:
            raise NotUnitary(f"W({k:.3f}) has unitarity defect {defect:.3e} > {tol.unit}")
        worst = max(worst, defect)
        wmk = bloch_per_momentum(ti, -k)
        for name, op in ti.cell_rep.ops.items():
            adjoint, _ = ADMISSIBILITY[name]
            moved = op.conjugate(wmk if op.antiunitary else wk)
            worst = max(worst, screened_norm((moved - (wk.conj().T if adjoint else wk))[None], tol.adm)[0])
    if worst > tol.adm:
        raise RelationViolation(f"momentum-space symmetry residual {worst:.3e}")
    return worst


def winding_per_momentum(ti: TIWalk, n_k: int = 256, tol: Tolerances = DEFAULT_TOL) -> InvariantReport:
    """``walks.winding_number`` (chiral classes, unaliased ``n_k``) with one ``det`` per momentum."""
    validate_per_momentum(ti, tol)
    plus, minus = chiral_sectors(ti.cell_rep, tol)
    n = n_k
    while True:
        ks = -np.pi + 2 * np.pi * np.arange(n) / n
        dets = np.empty(n, dtype=complex)
        for i, k in enumerate(ks):
            dets[i] = np.linalg.det(plus.conj().T @ bloch_per_momentum(ti, k) @ minus)
        if np.min(np.abs(dets)) < tol.det:
            raise SingularBlock(
                f"off-diagonal block determinant {np.min(np.abs(dets)):.3e} at some momentum; gap closed"
            )
        incr = np.angle(np.roll(dets, -1) / dets)
        total = float(np.sum(incr) / (2 * np.pi))
        nearest = round(total)
        if np.max(np.abs(incr)) < np.pi / 2 and abs(total - nearest) <= tol.integer_residual:
            return InvariantReport(IndexValue(ti.cls.index_group, nearest), total, abs(total - nearest), n)
        if n >= MAX_MOMENTUM_SAMPLES:
            raise NonIntegerInvariant(f"winding {total:.6f} at {n} samples")
        n *= 2


def _band_basis_per_momentum(ti: TIWalk, k: float, tol: Tolerances) -> np.ndarray:
    eig = eig_unitary(bloch_per_momentum(ti, k), tol)
    if np.min(np.abs(eig.values.imag)) < tol.gap:
        raise Gapless(f"eigenvalue {eig.values[np.argmin(np.abs(eig.values.imag))]:.6g} at k={k:.4f}")
    return eig.vectors[:, eig.values.imag > 0]


def berry_per_momentum(ti: TIWalk, n_k: int = 256, tol: Tolerances = DEFAULT_TOL) -> InvariantReport:
    """``walks.berry_phase`` (classes D, DIII), one ``eig_unitary`` and overlap ``det`` per momentum."""
    validate_per_momentum(ti, tol)
    n = n_k
    while n <= MAX_MOMENTUM_SAMPLES:
        if ti.cls is SymmetryClass.D:
            ks = -np.pi + 2 * np.pi * np.arange(n) / n
        else:
            ks = np.pi * np.arange(n + 1) / n
        bases = [_band_basis_per_momentum(ti, k, tol) for k in ks]
        if len({b.shape[1] for b in bases}) > 1:
            raise RankJump("upper band rank changes across the momentum grid")
        if ti.cls is SymmetryClass.D:
            bases.append(bases[0])
        else:
            tau = ti.cell_rep.ops["tau"]
            bases[0] = _kramers_frame(tau, bases[0], tol)
            bases[-1] = _kramers_frame(tau, bases[-1], tol)
        overlaps = [np.linalg.det(b0.conj().T @ b1) for b0, b1 in zip(bases[:-1], bases[1:])]
        if min(abs(d) for d in overlaps) >= 0.3:
            prod = 1.0 + 0j
            for d in overlaps:
                prod *= d / abs(d)
            phase = float(np.angle(prod))
            if ti.cls is SymmetryClass.D:
                raw, group, period = phase / np.pi, IndexGroup.Z2, 1
            else:
                raw, group, period = 2 * phase / np.pi, IndexGroup.TWO_Z2, 2
            nearest = period * round(raw / period)
            if abs(raw - nearest) <= tol.integer_residual:
                return InvariantReport(IndexValue(group, nearest % (2 * period)), raw, abs(raw - nearest), n)
        n *= 2
    raise NonIntegerInvariant(f"phase index did not stabilize at {n // 2} samples")
