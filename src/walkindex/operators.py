"""Dense numerics for unitary operators.

Eigendecompositions of unitary matrices are computed through their commuting
Hermitian real and imaginary parts: eigenvectors of ``(W + W*)/2`` are
refined inside each degenerate cluster by diagonalizing the compression of
``(W - W*)/2i``.  This yields an orthonormal eigenbasis (guaranteed by
``eigh``) even for the conjugate-paired spectra of admissible walks, where a
general nonsymmetric solver can lose orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenFailure,
    NotAdmissible,
    NotNormal,
    NotUnitary,
    WindowAmbiguous,
)
from .lattice import LatticeOperator, LocalSymmetryRep, measure_admissibility
from .symmetry import ADMISSIBILITY, SymmetryRep, screened_norm, unitarity_defect
from .tolerances import DEFAULT_TOL, Tolerances

__all__ = [
    "UnitaryEigen",
    "eig_unitary",
    "kernel_basis",
    "polar_isometry",
    "imaginary_part",
    "check_unitary",
    "check_admissible",
    "AdmissibilityReport",
    "phase_window",
    "check_normal",
    "admissible_hamiltonian_projection",
]

# Eigen and invariance residuals of a d x d matrix pass up to
# max(tol.eig, INVARIANCE_FLOOR * d): rounding grows like d eps ||W||.
INVARIANCE_FLOOR = 1e-12
# eig_unitary refines eigenvectors within each cluster of eigenvalues of Re W
# whose neighbours lie at most CLUSTER_GAP apart (+-theta pairs share cos theta).
CLUSTER_GAP = 1e-8
# phase_window takes a target t with ||t| - 1| <= UNIT_CIRCLE_SLACK.
UNIT_CIRCLE_SLACK = 1e-9


def check_unitary(w: LatticeOperator, tol: Tolerances = DEFAULT_TOL, what: str = "operator") -> float:
    """Unitarity defect screened by ``tol.unit``: a bound if it passes, else exact and raised.

    The defect is the operator's
    :attr:`~walkindex.lattice.LatticeOperator.unitarity` record, measured once.
    """
    defect = w.unitarity.screened(tol.unit)
    if defect > tol.unit:
        raise NotUnitary(f"{what} has unitarity defect {defect:.3e} > {tol.unit}")
    return defect


@dataclass(frozen=True)
class UnitaryEigen:
    """Spectral data of a unitary matrix.

    ``vectors`` has orthonormal columns, ``values[j]`` belongs to column ``j``,
    sorted by phase in (-pi, pi].  ``residual`` bounds ``||W V - V diag(values)||``.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float


def eig_unitary(w: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> UnitaryEigen:
    """Orthonormal eigendecomposition of a unitary matrix."""
    w = np.asarray(w, dtype=complex)
    check_unitary(LatticeOperator.one_cell(w), tol)
    d = w.shape[0]
    re = (w + w.conj().T) / 2
    im = (w - w.conj().T) / 2j
    a, v = np.linalg.eigh(re)
    # Refine within clusters of the real part; +-theta pairs share cos(theta).
    start = 0
    for stop in range(1, d + 1):
        if stop == d or a[stop] - a[stop - 1] > CLUSTER_GAP:
            if stop - start > 1:
                block = v[:, start:stop]
                sub = block.conj().T @ im @ block
                sub = (sub + sub.conj().T) / 2
                _, u = np.linalg.eigh(sub)
                v[:, start:stop] = block @ u
            start = stop
    values = np.einsum("ij,jk,ki->i", v.conj().T, w, v)
    order = np.argsort(np.angle(values), kind="stable")
    values = values[order]
    v = v[:, order]
    bound = max(tol.eig, INVARIANCE_FLOOR * d)
    residual = screened_norm(w @ v - v * values[None, :], bound)
    if residual > bound:
        raise EigenFailure(f"eigendecomposition residual {residual:.3e}")
    orth = unitarity_defect(v, tol.orth)
    if orth > tol.orth:
        raise EigenFailure(f"eigenbasis orthonormality defect {orth:.3e}")
    return UnitaryEigen(values, v, residual)


def kernel_basis(m: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the (numerical) kernel via singular vectors.

    Singular values at or below ``tol * max(1, s_max)`` count as zero.
    """
    m = np.asarray(m, dtype=complex)
    if min(m.shape) == 0:
        return np.eye(m.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(m)
    cut = tol * max(1.0, float(s[0]) if s.size else 1.0)
    small = np.concatenate([s <= cut, np.ones(m.shape[1] - s.size, dtype=bool)])
    return vh.conj().T[:, small]


def polar_isometry(x: np.ndarray, tol: float) -> np.ndarray:
    """Isometric factor of the polar decomposition, zero on the kernel.

    For ``x = u s v*`` (SVD) returns ``u_r v_r*`` over singular values above
    ``tol * max(1, s_max)``; the result is a partial isometry with initial
    space ``ker(x)^perp`` and final space ``ran(x)``.
    """
    u, s, vh = np.linalg.svd(np.asarray(x, dtype=complex))
    keep = s > tol * max(1.0, float(s[0]) if s.size else 1.0)
    return u[:, keep] @ vh[keep, :]


def imaginary_part(w: np.ndarray) -> np.ndarray:
    """The Hermitian operator ``(W - W*)/2i``, of each matrix of a stack."""
    return (w - w.conj().swapaxes(-1, -2)) / 2j


@dataclass(frozen=True)
class AdmissibilityReport:
    residuals: dict[str, float]
    max_residual: float
    ok: bool


def check_admissible(
    w: LatticeOperator,
    rep: SymmetryRep | LocalSymmetryRep | None = None,
    kind: str = "walk",
    tol: Tolerances = DEFAULT_TOL,
    strict: bool = True,
) -> AdmissibilityReport:
    """Residuals of the symmetry conditions for a walk or Hamiltonian.

    Walk: ``eta W eta^-1 = W``, ``tau W tau^-1 = W*``, ``gamma W gamma^-1 = W*``.
    Hamiltonian: right-hand sides ``-H, +H, -H``.

    ``rep`` is cell-local or dense (one run of one cell), and defaults to an
    operator's ``local_rep``.  A walk with its own rep reads the operator's
    :attr:`~walkindex.lattice.LatticeOperator.admissibility` record, measured
    once; anything else is measured on the call from the operator's cell band
    (:func:`~walkindex.lattice.measure_admissibility`).  Each residual is
    screened against ``tol.adm``: one that passes is reported as its bound,
    any other is the spectral norm.  A ``strict=False`` report is the same
    measurement without the raise.
    """
    if kind not in ("walk", "hamiltonian"):
        raise ValueError(f"kind must be 'walk' or 'hamiltonian', got {kind!r}")
    if kind == "walk" and (rep is None or rep is w.local_rep):
        gates = w.admissibility
    elif rep is None:
        raise NotAdmissible("no symmetry representation supplied or attached")
    else:
        gates = measure_admissibility(w.cell_band, rep.runs(), kind)
    res = {name: gate.screened(tol.adm) for name, gate in gates.items()}
    worst = max(res.values(), default=0.0)
    ok = worst <= tol.adm
    if strict and not ok:
        key = max(res, key=res.get)
        raise NotAdmissible(f"symmetry condition for {key} violated: residual {res[key]:.3e}")
    return AdmissibilityReport(res, worst, ok)


def phase_window(
    eig: UnitaryEigen,
    target: complex,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Mask of the eigenvalues within ``tol.exact`` radians of a phase.

    Raises ``WindowAmbiguous`` if some eigenvalue sits within ``10 * tol.eig``
    of the window edge, where membership is numerically undecidable.
    """
    t = complex(target)
    if abs(abs(t) - 1) > UNIT_CIRCLE_SLACK:
        raise ValueError(f"target {t} is not on the unit circle")
    delta = np.abs(np.angle(eig.values * np.conj(t)))
    edge = np.abs(delta - tol.exact)
    guard = 10 * tol.eig
    risky = (edge < guard) & (delta > guard)
    if np.any(risky):
        worst = float(np.min(edge[risky]))
        raise WindowAmbiguous(
            f"eigenvalue within {worst:.3e} rad of the selection window edge at {t:.3g}"
        )
    return delta <= tol.exact


def admissible_hamiltonian_projection(k: np.ndarray, rep: SymmetryRep) -> np.ndarray:
    """Project a Hermitian matrix onto the admissible Hamiltonians of ``rep``.

    Averages ``K`` over the symmetry group with the Hamiltonian signs
    (eta: -, tau: +, gamma: -); the exponential ``exp(i H)`` of the result is
    an admissible walk.  Cell-local ``K`` stays cell-local because the
    operators are cell-local.
    """
    h = (np.asarray(k, dtype=complex) + np.asarray(k, dtype=complex).conj().T) / 2
    for name, op in rep.ops.items():
        _, sign = ADMISSIBILITY[name]
        h = (h + sign * op.conjugate(h)) / 2
    return h


def check_normal(w: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float:
    """``||W W* - W* W||`` screened by ``10 tol.unit``: a bound if it passes, else exact and raised."""
    w = np.asarray(w, dtype=complex)
    defect = screened_norm(w @ w.conj().T - w.conj().T @ w, tol.unit * 10)
    if defect > tol.unit * 10:
        raise NotNormal(f"operator is not normal: defect {defect:.3e}")
    return defect
