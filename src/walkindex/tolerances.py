"""Numerical tolerances used across the package.

All tolerances are absolute; matrices handled here are unitary or projections,
so scales are O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    """Bundle of absolute tolerances.

    Attributes
    ----------
    unit : float
        Unitarity defect ``||W* W - 1||``.
    adm : float
        Admissibility residual of symmetry conditions.
    eig : float
        Eigendecomposition residual ``||W V - V diag(w)||``.
    orth : float
        Orthonormality defect of returned bases.
    idx : float
        Agreement of independently computed integer invariants.
    exact : float
        Window for eigenvalues that are exact by construction.
    band : float
        Block norms below this count as zero when measuring bandwidth.
    ker : float
        Kernel threshold for singular/eigen values.
    det : float
        Chiral block determinants below this are singular.
    gap : float
        Spectral gaps below this count as closed.
    integer_residual : float
        Largest accepted distance of winding/phase sums from an integer.
    """

    unit: float = 1e-10
    adm: float = 1e-8
    eig: float = 1e-9
    orth: float = 1e-9
    idx: float = 1e-6
    exact: float = 1e-7
    band: float = 1e-12
    ker: float = 1e-8
    det: float = 1e-8
    gap: float = 1e-6
    integer_residual: float = 1e-2

    def __post_init__(self) -> None:
        for f in fields(self):
            if not getattr(self, f.name) >= 0:  # false for nan too
                raise ValueError(f"tolerance {f.name} must be a number >= 0, got {getattr(self, f.name)!r}")

    def with_(self, **kwargs: float) -> "Tolerances":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


DEFAULT_TOL = Tolerances()
