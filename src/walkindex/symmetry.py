"""Tenfold-way symmetry data for one-dimensional unitary dynamics.

A symmetry type is labelled by which of the three involutive symmetries are
present and by the signs of their squares:

======  =====  =====  =====  ===========
class   eta^2  tau^2  gam^2  index group
======  =====  =====  =====  ===========
A       --     --     --     0
D       +1     --     --     Z2
C       -1     --     --     0
AI      --     +1     --     0
AII     --     -1     --     0
AIII    --     --     +1     Z
BDI     +1     +1     +1     Z
CI      -1     +1     -1     0
CII     -1     -1     +1     2Z
DIII    +1     -1     -1     2Z2 (values mod 4 in {0, 2})
======  =====  =====  =====  ===========

``eta`` (particle-hole) and ``tau`` (time reversal) are antiunitary, ``gamma``
(chiral) is unitary, and when all three are present ``gamma = eta tau`` with
all pairs commuting.  Antiunitary operators are stored as a unitary matrix
``M`` acting by ``psi -> M conj(psi)``.

Admissibility of a unitary ``W``: ``eta W eta^-1 = W``, ``tau W tau^-1 = W*``,
``gamma W gamma^-1 = W*``.  For a Hamiltonian the right-hand sides are
``-H, +H, -H``.

The symmetry index of a representation is ``tr(gamma)`` for the chiral
classes with ``gamma^2 = +1`` (AIII, BDI, CII), the dimension mod 2 for
class D, and the dimension mod 4 for class DIII.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    DecouplingFailed,
    IllegalForget,
    NonIntegerTrace,
    NotAdmissible,
    RelationViolation,
    Unbalanced,
)
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "IndexGroup",
    "IndexValue",
    "SymmetryClass",
    "SymmetryOperator",
    "SymmetryRep",
    "RepReport",
    "ADMISSIBILITY",
    "ADMISSIBILITY_SCREEN_SLACK",
    "spectral_norm",
    "frobenius_bound",
    "frobenius_bounds",
    "screened_norm",
    "screened_squares",
    "unitarity_defect",
    "apply_runs",
    "times_runs",
    "trace_runs",
    "compress_invariant",
    "restrict_runs",
    "block_diagonal",
    "rep_index",
    "forget_index",
    "forget_rep",
    "forget_legal",
    "balanced_hamiltonian",
    "fixed_point_basis",
    "kramers_pairs",
    "chiral_sectors",
]


class IndexGroup(enum.Enum):
    """Value group of a symmetry index."""

    TRIVIAL = "0"
    Z = "Z"
    Z2 = "Z2"
    TWO_Z = "2Z"
    TWO_Z2 = "2Z2"

    @property
    def label(self) -> str:
        return self.value


@dataclass(frozen=True)
class IndexValue:
    """An element of one of the five index groups, in canonical form.

    Canonical values: TRIVIAL -> 0, Z2 -> {0, 1}, 2Z2 -> {0, 2},
    2Z -> even integers, Z -> integers.  Arithmetic is defined within a
    single group.
    """

    group: IndexGroup
    value: int

    def __post_init__(self) -> None:
        v = int(self.value)
        if self.group is IndexGroup.TRIVIAL:
            v = 0
        elif self.group is IndexGroup.Z2:
            v = v % 2
        elif self.group is IndexGroup.TWO_Z2:
            v = v % 4
            if v not in (0, 2):
                raise ValueError(f"2Z2 values are 0 or 2 mod 4, got {v}")
        elif self.group is IndexGroup.TWO_Z:
            if v % 2:
                raise ValueError(f"2Z values are even, got {v}")
        object.__setattr__(self, "value", v)

    def _check_same_group(self, other: "IndexValue") -> None:
        if not isinstance(other, IndexValue) or other.group is not self.group:
            raise ValueError(f"mixed index groups: {self.group} vs {getattr(other, 'group', other)}")

    def __add__(self, other: "IndexValue") -> "IndexValue":
        self._check_same_group(other)
        return IndexValue(self.group, self.value + other.value)

    def __neg__(self) -> "IndexValue":
        return IndexValue(self.group, -self.value)

    def __sub__(self, other: "IndexValue") -> "IndexValue":
        return self + (-other)

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return f"{self.value} in {self.group.label}"

    @classmethod
    def zero(cls, group: IndexGroup) -> "IndexValue":
        return cls(group, 0)


class SymmetryClass(enum.Enum):
    A = "A"
    D = "D"
    C = "C"
    AI = "AI"
    AII = "AII"
    AIII = "AIII"
    BDI = "BDI"
    CI = "CI"
    CII = "CII"
    DIII = "DIII"

    @property
    def squares(self) -> Mapping[str, int]:
        """Present operators mapped to the sign of their square."""
        return _CLASS_SQUARES[self]

    @property
    def ops_present(self) -> frozenset[str]:
        return frozenset(_CLASS_SQUARES[self])

    @property
    def index_group(self) -> IndexGroup:
        return _CLASS_GROUPS[self]


_CLASS_SQUARES: dict[SymmetryClass, dict[str, int]] = {
    SymmetryClass.A: {},
    SymmetryClass.D: {"eta": +1},
    SymmetryClass.C: {"eta": -1},
    SymmetryClass.AI: {"tau": +1},
    SymmetryClass.AII: {"tau": -1},
    SymmetryClass.AIII: {"gamma": +1},
    SymmetryClass.BDI: {"eta": +1, "tau": +1, "gamma": +1},
    SymmetryClass.CI: {"eta": -1, "tau": +1, "gamma": -1},
    SymmetryClass.CII: {"eta": -1, "tau": -1, "gamma": +1},
    SymmetryClass.DIII: {"eta": +1, "tau": -1, "gamma": -1},
}

_CLASS_GROUPS: dict[SymmetryClass, IndexGroup] = {
    SymmetryClass.A: IndexGroup.TRIVIAL,
    SymmetryClass.D: IndexGroup.Z2,
    SymmetryClass.C: IndexGroup.TRIVIAL,
    SymmetryClass.AI: IndexGroup.TRIVIAL,
    SymmetryClass.AII: IndexGroup.TRIVIAL,
    SymmetryClass.AIII: IndexGroup.Z,
    SymmetryClass.BDI: IndexGroup.Z,
    SymmetryClass.CI: IndexGroup.TRIVIAL,
    SymmetryClass.CII: IndexGroup.TWO_Z,
    SymmetryClass.DIII: IndexGroup.TWO_Z2,
}

# Antiunitary flags of the three operator slots.
_ANTIUNITARY = {"eta": True, "tau": True, "gamma": False}

# Admissibility conditions per operator slot: whether ``sigma W sigma^-1``
# must equal ``W*`` (else ``W``) for a walk, and the sign ``s`` in
# ``sigma H sigma^-1 = s H`` for a Hamiltonian.
ADMISSIBILITY: dict[str, tuple[bool, int]] = {
    "eta": (False, -1),
    "tau": (True, +1),
    "gamma": (True, -1),
}


def spectral_norm(x: np.ndarray) -> float | np.ndarray:
    """Spectral norm (largest singular value); zero for an empty matrix.

    A stack of matrices over the last two axes gets one batched SVD and an
    array of norms.
    """
    norms = np.linalg.norm(x, 2, axis=(-2, -1)) if x.size else np.zeros(x.shape[:-2])
    return float(norms) if x.ndim == 2 else norms


# a residual passes the Frobenius screen only this far (relatively) under its
# bound, so rounding in either norm cannot change the spectral-norm verdict
ADMISSIBILITY_SCREEN_SLACK = 1e-6

# the smallest normal double and the rounding unit
FLOAT_TINY = float(np.finfo(float).tiny)
FLOAT_EPS = float(np.finfo(float).eps)


def _padded_root(squares, size: int):
    """``sqrt(squares)`` for the sum of squares of ``size`` complex entries."""
    # a real or imaginary part whose square underflows loses less than tiny
    # from the sum, so the padding keeps this above ||x||_F
    return np.sqrt(squares + 2 * size * FLOAT_TINY)


def frobenius_bound(x: np.ndarray) -> float:
    """``||x||_F``, an upper bound on the spectral norm."""
    return float(_padded_root(np.vdot(x, x).real, x.size))


def frobenius_bounds(x: np.ndarray) -> np.ndarray:
    """:func:`frobenius_bound` of each matrix of a stack, from one batched sum of squares."""
    return _padded_root((x.real**2 + x.imag**2).sum(axis=(-2, -1)), x.shape[-2] * x.shape[-1])


def screened_squares(squares: float, size: int, bound: float, exact: Callable[[], float]) -> float:
    """:func:`screened_norm` of a matrix of ``size`` entries known by the sum
    of their squares: its padded Frobenius norm where that passes ``bound``
    less ``ADMISSIBILITY_SCREEN_SLACK``, else ``exact()``."""
    frob = float(_padded_root(squares, size))
    return frob if frob <= bound * (1 - ADMISSIBILITY_SCREEN_SLACK) else exact()


def screened_norm(x: np.ndarray, bound: float | None = None) -> float | np.ndarray:
    """:func:`spectral_norm`, except that a residual whose Frobenius norm (an
    upper bound) is at most ``bound`` less ``ADMISSIBILITY_SCREEN_SLACK``
    returns that bound and takes no SVD; a failing residual is always exact.

    A stack is screened matrix by matrix: an SVD is taken only of the
    matrices whose bound does not pass."""
    if bound is None:
        return spectral_norm(x)
    if x.ndim == 2:
        return screened_squares(np.vdot(x, x).real, x.size, bound, lambda: spectral_norm(x))
    frobs = frobenius_bounds(x)
    fail = ~(frobs <= bound * (1 - ADMISSIBILITY_SCREEN_SLACK))
    if fail.any():
        frobs[fail] = spectral_norm(x[fail])
    return frobs


def unitarity_defect(m: np.ndarray, bound: float | None = None) -> float | np.ndarray:
    """``||M* M - 1||`` of each matrix of a stack, or :func:`screened_norm` by ``bound``."""
    return screened_norm(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1]), bound)


def block_diagonal(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Complex block-diagonal matrix with the given (possibly rectangular) blocks."""
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


@dataclass(frozen=True)
class SymmetryOperator:
    """A unitary or antiunitary operator.

    ``matrix`` must be unitary; antiunitary operators act as
    ``psi -> matrix @ conj(psi)``.
    """

    matrix: np.ndarray
    antiunitary: bool

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Apply to a vector, or columnwise to a matrix of vectors."""
        return self.matrix @ (np.conj(psi) if self.antiunitary else psi)

    def conjugate(self, x: np.ndarray) -> np.ndarray:
        """Operator conjugation ``sigma X sigma^-1``."""
        m = self.matrix
        if self.antiunitary:
            return m @ np.conj(x) @ m.conj().T
        return m @ x @ m.conj().T

    def compose(self, other: "SymmetryOperator") -> "SymmetryOperator":
        """``self`` after ``other``."""
        m2 = np.conj(other.matrix) if self.antiunitary else other.matrix
        return SymmetryOperator(self.matrix @ m2, self.antiunitary ^ other.antiunitary)

    def square(self) -> np.ndarray:
        return self.compose(self).matrix

    def inverse(self) -> "SymmetryOperator":
        # For antiunitary sigma = M K the inverse is M^T K.
        if self.antiunitary:
            return SymmetryOperator(self.matrix.T, True)
        return SymmetryOperator(self.matrix.conj().T, False)

    def conjugated(self, u: np.ndarray) -> "SymmetryOperator":
        """The operator ``u sigma u^-1`` for unitary ``u``."""
        if self.antiunitary:
            return SymmetryOperator(u @ self.matrix @ u.T, True)
        return SymmetryOperator(u @ self.matrix @ u.conj().T, False)


@dataclass(frozen=True)
class RepReport:
    """Residuals of the defining relations of a representation, each screened by
    ``tol.adm`` (:func:`screened_norm`): a bound where it passes, else exact."""

    residuals: dict[str, float]
    max_residual: float


@dataclass(frozen=True)
class SymmetryRep:
    """A concrete representation of one of the ten symmetry types."""

    cls: SymmetryClass
    ops: Mapping[str, SymmetryOperator]
    dim: int

    @classmethod
    def from_matrices(
        cls,
        sym_class: SymmetryClass,
        dim: int,
        eta: np.ndarray | None = None,
        tau: np.ndarray | None = None,
        gamma: np.ndarray | None = None,
    ) -> "SymmetryRep":
        """Build a representation from raw matrices with standard flags."""
        given = {"eta": eta, "tau": tau, "gamma": gamma}
        ops = {
            name: SymmetryOperator(np.asarray(m, dtype=complex), _ANTIUNITARY[name])
            for name, m in given.items()
            if m is not None
        }
        return cls(sym_class, ops, dim)

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> RepReport:
        """Check shapes, unitarity, squares, commutation and gamma = eta tau.

        The residuals are screened against ``tol.adm`` as one stack
        (:func:`screened_norm`); a violation raises ``RelationViolation``
        naming the worst relation and its spectral norm.
        """
        expected = self.cls.ops_present
        if set(self.ops) != expected:
            raise RelationViolation(
                f"class {self.cls.value} needs operators {sorted(expected)}, got {sorted(self.ops)}"
            )
        for name, op in self.ops.items():
            if op.matrix.shape != (self.dim, self.dim):
                raise RelationViolation(f"{name} has shape {op.matrix.shape}, expected {(self.dim, self.dim)}")
            if op.antiunitary != _ANTIUNITARY[name]:
                raise RelationViolation(f"{name} has wrong antiunitary flag")
        eye, ops = np.eye(self.dim), self.ops
        residuals: dict[str, np.ndarray] = {}
        for name, op in ops.items():
            residuals[f"unitary:{name}"] = op.matrix.conj().T @ op.matrix - eye
            residuals[f"square:{name}"] = op.square() - self.cls.squares[name] * eye
        names = sorted(ops)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                residuals[f"commute:{a},{b}"] = ops[a].compose(ops[b]).matrix - ops[b].compose(ops[a]).matrix
        if len(ops) == 3:
            residuals["product:eta tau = gamma"] = ops["eta"].compose(ops["tau"]).matrix - ops["gamma"].matrix
        stack = np.array(list(residuals.values()))
        res = dict(zip(residuals, screened_norm(stack, tol.adm).tolist() if residuals else []))
        worst = max(res.values(), default=0.0)
        if worst > tol.adm:
            key = max(res, key=res.get)
            raise RelationViolation(f"relation {key} violated: residual {res[key]:.3e}")
        return RepReport(res, worst)

    def runs(self) -> list[tuple[int, int, "SymmetryRep"]]:
        """The rep as one run of one cell (see :func:`apply_runs`)."""
        return [(0, 1, self)]

    @cached_property
    def chiral_frame(self) -> tuple[np.ndarray, int]:
        """``(basis, n_plus)``: a unitary whose first ``n_plus`` columns span the +1
        eigenspace of ``gamma`` (of ``i gamma`` where ``gamma^2 = -1``) and the
        rest its -1 eigenspace.  An operator that anticommutes with ``gamma`` is
        off-diagonal in this frame.  Computed once per rep."""
        g = self.ops["gamma"].matrix
        if self.cls.squares["gamma"] < 0:
            g = 1j * g
        vals, vecs = np.linalg.eigh((g + g.conj().T) / 2)
        return vecs[:, ::-1], int(np.sum(vals > 0))

    def restrict(self, basis: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> "SymmetryRep":
        """Restriction to an invariant subspace given by orthonormal columns."""
        return restrict_runs(self.cls, self.runs(), basis, tol)

    def direct_sum(self, *others: "SymmetryRep") -> "SymmetryRep":
        """Block-diagonal sum of this representation and ``others``, in order."""
        for other in others:
            if other.cls is not self.cls:
                raise RelationViolation(f"cannot sum classes {self.cls.value} and {other.cls.value}")
        reps = (self, *others)
        ops = {
            name: SymmetryOperator(block_diagonal([r.ops[name].matrix for r in reps]), op.antiunitary)
            for name, op in self.ops.items()
        }
        return SymmetryRep(self.cls, ops, sum(r.dim for r in reps))

    def conjugated(self, u: np.ndarray) -> "SymmetryRep":
        return SymmetryRep(self.cls, {n: op.conjugated(u) for n, op in self.ops.items()}, self.dim)


# -- the action of a rep, one run of equal cells at a time -------------------------
# A run (start, count, cell) is count consecutive cells from index start that
# share one cell rep; a dense rep is one run of one cell.  An operator acts as
# the block-diagonal matrix M of its cell matrices.

Runs = Sequence[tuple[int, int, SymmetryRep]]


def _run_blocks(runs: Runs, name: str):
    """``(start, stop, count, d, matrix)`` of operator ``name`` on each run."""
    for start, count, cell in runs:
        m = cell.ops[name].matrix
        d = m.shape[0]
        yield start, start + count * d, count, d, m


def apply_runs(runs: Runs, name: str, x: np.ndarray) -> np.ndarray:
    """``sigma`` on each column of ``x`` (``M x``, or ``M conj(x)`` if antiunitary),
    one batched product per run on its rows of ``x`` as ``(count, d, k)``."""
    if runs[0][2].ops[name].antiunitary:
        x = np.conj(x)
    k = x.shape[1]
    out = np.empty((x.shape[0], k), dtype=complex)
    for start, stop, count, d, m in _run_blocks(runs, name):
        np.matmul(m, x[start:stop].reshape(count, d, k), out=out[start:stop].reshape(count, d, k))
    return out


def times_runs(x: np.ndarray, runs: Runs, name: str, adjoint: bool = False) -> np.ndarray:
    """``x M`` (``x M*`` when ``adjoint``), one batched product per run on its
    columns of ``x`` as ``(count, n, d)``, written in place through that view."""
    n = x.shape[0]
    out = np.empty((n, x.shape[1]), dtype=complex)
    for start, stop, count, d, m in _run_blocks(runs, name):
        np.matmul(
            x[:, start:stop].reshape(n, count, d).transpose(1, 0, 2),
            m.conj().T if adjoint else m,
            out=out[:, start:stop].reshape(n, count, d).transpose(1, 0, 2),
        )
    return out


def trace_runs(runs: Runs, name: str, x: np.ndarray | None = None) -> complex:
    """``tr(M x)`` from the diagonal cell blocks of ``x``, a matrix or, on equal
    cells, the ``(cells, d, d)`` stack of those blocks; ``tr M`` without ``x``."""
    total = 0j
    for start, stop, count, d, m in _run_blocks(runs, name):
        if x is None:
            total += count * complex(np.trace(m))
        elif x.ndim == 3:
            total += complex(np.einsum("ij,cji->", m, x[start // d : start // d + count]))
        else:
            blocks = x[start:stop, start:stop].reshape(count, d, count, d)
            total += complex(np.einsum("ij,cjci->", m, blocks))
    return total


def compress_invariant(basis: np.ndarray, image: np.ndarray, name: str, tol: Tolerances) -> np.ndarray:
    """Compression ``basis* image`` of the operator ``name`` whose image of the
    orthonormal ``basis`` is ``image``; a part of ``image`` above ``tol.adm``
    off the span (:func:`screened_norm`) raises ``NotAdmissible``."""
    sub = basis.conj().T @ image
    defect = screened_norm(image - basis @ sub, tol.adm)
    if defect > tol.adm:
        raise NotAdmissible(f"subspace not invariant under {name}: defect {defect:.3e}")
    return sub


def restrict_runs(
    cls: SymmetryClass, runs: Runs, basis: np.ndarray, tol: Tolerances, walk: np.ndarray | None = None
) -> SymmetryRep:
    """:func:`compress_invariant` of each operator, applied once by runs.  With
    a ``walk`` ``W`` the operators are those of the companion rep, ``eta``,
    ``W tau`` and ``W gamma``: ``W`` times the image by runs for the operators
    whose walk condition takes the adjoint."""
    ops = {}
    for name, op in runs[0][2].ops.items():
        image = apply_runs(runs, name, basis)
        if walk is not None and ADMISSIBILITY[name][0]:
            image = walk @ image
        ops[name] = SymmetryOperator(compress_invariant(basis, image, name, tol), op.antiunitary)
    return SymmetryRep(cls, ops, basis.shape[1])


def rep_index(rep: SymmetryRep, tol: Tolerances = DEFAULT_TOL) -> IndexValue:
    """Symmetry index of a representation, which is validated first.

    ``tr(gamma)`` for AIII/BDI/CII (even for CII), ``dim mod 2`` for D,
    ``dim mod 4`` for DIII; zero element for the trivial-group classes.
    """
    rep.validate(tol)
    group = rep.cls.index_group
    if group is IndexGroup.TRIVIAL:
        return IndexValue.zero(group)
    if rep.cls in (SymmetryClass.AIII, SymmetryClass.BDI, SymmetryClass.CII):
        t = complex(np.trace(rep.ops["gamma"].matrix))
        nearest = round(t.real)
        if abs(t.imag) > tol.idx or abs(t.real - nearest) > tol.idx:
            raise NonIntegerTrace(f"tr(gamma) = {t:.6g} is not an integer at tolerance {tol.idx}")
        if rep.cls is SymmetryClass.CII and nearest % 2:
            raise NonIntegerTrace(f"tr(gamma) = {nearest} must be even in class CII")
        return IndexValue(group, nearest)
    if rep.cls is SymmetryClass.D:
        return IndexValue(group, rep.dim % 2)
    # DIII: Kramers pairing of tau forces even dimension.
    if rep.dim % 2:
        raise RelationViolation(f"DIII representation has odd dimension {rep.dim}")
    return IndexValue(group, rep.dim % 4)


def forget_legal(source: SymmetryClass, target: SymmetryClass) -> bool:
    """Whether ``target`` keeps a subset of the symmetries of ``source``.

    Antiunitary squares must match exactly; a kept chiral operator may be
    rescaled by a phase, so its square sign is unconstrained.
    """
    if source is target:
        return True
    src, tgt = source.squares, target.squares
    for name, sign in tgt.items():
        if name not in src:
            return False
        if name != "gamma" and src[name] != sign:
            return False
    return True


def forget_index(value: IndexValue, source: SymmetryClass, target: SymmetryClass) -> IndexValue:
    """Push an index value through the symmetry-forgetting homomorphism."""
    if value.group is not source.index_group:
        raise IllegalForget(f"value lies in {value.group.label}, class {source.value} uses {source.index_group.label}")
    if not forget_legal(source, target):
        raise IllegalForget(f"cannot forget {source.value} -> {target.value}")
    tg = target.index_group
    if source is target:
        return value
    if tg is IndexGroup.TRIVIAL or source.index_group is IndexGroup.TRIVIAL:
        return IndexValue.zero(tg)
    pair = (source, target)
    if pair == (SymmetryClass.BDI, SymmetryClass.AIII):
        return IndexValue(tg, value.value)
    if pair == (SymmetryClass.CII, SymmetryClass.AIII):
        return IndexValue(tg, value.value)
    if pair == (SymmetryClass.DIII, SymmetryClass.AIII):
        return IndexValue.zero(tg)
    if pair == (SymmetryClass.BDI, SymmetryClass.D):
        return IndexValue(tg, value.value % 2)
    if pair == (SymmetryClass.DIII, SymmetryClass.D):
        return IndexValue.zero(tg)
    raise IllegalForget(f"no forgetting homomorphism {source.value} -> {target.value}")


def forget_rep(rep: SymmetryRep, target: SymmetryClass, tol: Tolerances = DEFAULT_TOL) -> SymmetryRep:
    """Drop symmetry operators to reinterpret ``rep`` in a weaker class.

    A kept chiral operator with square -1 is rescaled to ``i gamma`` so its
    square becomes +1.
    """
    if not forget_legal(rep.cls, target):
        raise IllegalForget(f"cannot forget {rep.cls.value} -> {target.value}")
    if rep.cls is target:
        return rep
    ops: dict[str, SymmetryOperator] = {}
    for name, sign in target.squares.items():
        op = rep.ops[name]
        if name == "gamma" and rep.cls.squares["gamma"] != sign:
            op = SymmetryOperator(1j * op.matrix, False)
        ops[name] = op
    out = SymmetryRep(target, ops, rep.dim)
    out.validate(tol)
    return out


# -- bases adapted to antiunitary structure ----------------------------------

# fixed_point_basis takes i(v - sigma v) where |v + sigma v| is below this (squares sum to 4)
FIXED_POINT_NORM_FLOOR = 0.7
# fixed_point_basis refuses a basis that sigma moves by more than this
FIXED_POINT_CHECK = 1e-6
# kramers_pairs refuses |<v, sigma v>| above this
KRAMERS_OVERLAP = 1e-6
# _verify_balanced accepts residuals up to max(tol.adm, BALANCED_FLOOR)
BALANCED_FLOOR = 1e-7

def fixed_point_basis(
    op: SymmetryOperator,
    basis: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Orthonormal basis of ``span(basis)`` with ``sigma v = v``.

    Requires ``sigma^2 = +1`` and an invariant span.  In such a basis the
    compression of ``sigma`` is plain complex conjugation.
    """
    compress_invariant(basis, op.apply(basis), "sigma", tol)
    vecs: list[np.ndarray] = []
    rem = basis.copy()
    while rem.shape[1] > 0:
        v = rem[:, 0]
        w = v + op.apply(v)
        if np.linalg.norm(w) < FIXED_POINT_NORM_FLOOR:
            # v is close to anti-fixed; rotate by i first.
            w = 1j * (v - op.apply(v))
        w = w / np.linalg.norm(w)
        vecs.append(w)
        rem = _project_out(rem, w[:, None])
    out = np.column_stack(vecs) if vecs else np.zeros((basis.shape[0], 0), dtype=complex)
    if spectral_norm(op.apply(out) - out) > FIXED_POINT_CHECK:
        raise RelationViolation("fixed-point basis construction failed; is sigma^2 = +1?")
    return out


def kramers_pairs(
    op: SymmetryOperator,
    basis: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``span(basis)`` into pairs ``(v_j, sigma v_j)``.

    Requires ``sigma^2 = -1`` (so ``v`` and ``sigma v`` are orthogonal) and an
    invariant span of even dimension.  Returns two matrices ``V, W`` of
    columns with ``W = sigma(V)`` and ``[V W]`` orthonormal.
    """
    if basis.shape[1] % 2:
        raise RelationViolation(f"Kramers pairing needs even dimension, got {basis.shape[1]}")
    compress_invariant(basis, op.apply(basis), "sigma", tol)
    vs: list[np.ndarray] = []
    ws: list[np.ndarray] = []
    rem = basis.copy()
    while rem.shape[1] > 0:
        v = rem[:, 0]
        w = op.apply(v)
        overlap = abs(np.vdot(v, w))
        if overlap > KRAMERS_OVERLAP:
            raise RelationViolation(f"Kramers orthogonality violated: |<v, sigma v>| = {overlap:.3e}")
        w = w - v * np.vdot(v, w)
        w = w / np.linalg.norm(w)
        vs.append(v)
        ws.append(w)
        rem = _project_out(rem, np.column_stack([v, w]))
    v_mat = np.column_stack(vs) if vs else np.zeros((basis.shape[0], 0), dtype=complex)
    w_mat = np.column_stack(ws) if ws else np.zeros((basis.shape[0], 0), dtype=complex)
    return v_mat, w_mat


def _project_out(columns: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ``span(columns)`` minus ``span(drop)``."""
    target = columns.shape[1] - drop.shape[1]
    if target <= 0:
        return np.zeros((columns.shape[0], 0), dtype=complex)
    c = columns - drop @ (drop.conj().T @ columns)
    u, s, _ = np.linalg.svd(c, full_matrices=False)
    return u[:, :target]


def chiral_sectors(
    rep: SymmetryRep,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenbases of the chiral operator.

    Returns ``(plus, minus)``: for ``gamma^2 = +1`` the +1 and -1 eigenspaces,
    for ``gamma^2 = -1`` the +i and -i eigenspaces.
    """
    gamma = rep.ops["gamma"].matrix
    sign = rep.cls.squares["gamma"]
    if sign == +1:
        herm = gamma
    else:
        herm = 1j * gamma  # Hermitian; +1 eigenspace of i*gamma is the -i sector
    herm = (herm + herm.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    if np.any(np.abs(np.abs(vals) - 1) > tol.adm):
        raise RelationViolation("chiral operator is not involutive")
    if sign == +1:
        plus = vecs[:, vals > 0]
        minus = vecs[:, vals < 0]
    else:
        plus = vecs[:, vals < 0]  # gamma v = +i v  <=>  (i gamma) v = -v
        minus = vecs[:, vals > 0]
    return plus, minus


# -- balanced gapped generators ------------------------------------------------

def balanced_hamiltonian(rep: SymmetryRep, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """A Hermitian ``H`` with ``H^2 = 1`` admissible for ``rep``.

    Exists exactly when the index of ``rep`` vanishes (``Unbalanced``
    otherwise).  Admissibility means ``eta H eta^-1 = -H``,
    ``tau H tau^-1 = H``, ``gamma H gamma^-1 = -H`` for the present operators.
    """
    index = rep_index(rep, tol)
    if int(index) != 0:
        raise Unbalanced(f"index {index} admits no gapped generator")
    d = rep.dim
    cls = rep.cls
    eye = np.eye(d, dtype=complex)
    if cls in (SymmetryClass.A, SymmetryClass.AI, SymmetryClass.AII):
        h = eye.copy()
    elif cls is SymmetryClass.D:
        rb = fixed_point_basis(rep.ops["eta"], eye, tol)
        h = np.zeros((d, d), dtype=complex)
        for j in range(0, d - 1, 2):
            a, b = rb[:, j : j + 1], rb[:, j + 1 : j + 2]
            h += 1j * (a @ b.conj().T - b @ a.conj().T)
    elif cls is SymmetryClass.C:
        v, w = kramers_pairs(rep.ops["eta"], eye, tol)
        h = v @ v.conj().T - w @ w.conj().T
    else:
        plus, minus = chiral_sectors(rep, tol)
        if plus.shape[1] != minus.shape[1]:
            raise Unbalanced(
                f"chiral sectors have dimensions {plus.shape[1]} != {minus.shape[1]}"
            )
        if cls is SymmetryClass.AIII:
            p, q = plus, minus
            h = p @ q.conj().T + q @ p.conj().T
        elif cls is SymmetryClass.BDI:
            p = fixed_point_basis(rep.ops["eta"], plus, tol)
            q = fixed_point_basis(rep.ops["eta"], minus, tol)
            h = 1j * (p @ q.conj().T - q @ p.conj().T)
        elif cls is SymmetryClass.CII:
            pv, pw = kramers_pairs(rep.ops["eta"], plus, tol)
            qv, qw = kramers_pairs(rep.ops["eta"], minus, tol)
            p = np.column_stack([pv, pw])
            q = np.column_stack([qv, qw])
            h = 1j * (p @ q.conj().T - q @ p.conj().T)
        elif cls is SymmetryClass.CI:
            v = plus
            w = rep.ops["eta"].apply(v)  # eta maps the +i sector onto the -i sector
            h = v @ w.conj().T + w @ v.conj().T
        else:  # DIII
            v = plus
            w = rep.ops["eta"].apply(v)
            m = v.shape[1]
            h = np.zeros((d, d), dtype=complex)
            for j in range(0, m - 1, 2):
                a, b = v[:, j : j + 1], v[:, j + 1 : j + 2]
                c, e = w[:, j : j + 1], w[:, j + 1 : j + 2]
                h += a @ e.conj().T - b @ c.conj().T
            h = h + h.conj().T
    _verify_balanced(rep, h, tol)
    return h


def _verify_balanced(rep: SymmetryRep, h: np.ndarray, tol: Tolerances) -> None:
    d = rep.dim
    checks = {
        "hermitian": spectral_norm(h - h.conj().T),
        "involutive": spectral_norm(h @ h - np.eye(d)),
    }
    for name, op in rep.ops.items():
        _, sign = ADMISSIBILITY[name]
        checks[f"admissible:{name}"] = spectral_norm(op.conjugate(h) - sign * h)
    worst = max(checks.values())
    if worst > max(tol.adm, BALANCED_FLOOR):
        key = max(checks, key=checks.get)
        raise DecouplingFailed(f"balanced generator failed check {key}: {checks[key]:.3e}")
