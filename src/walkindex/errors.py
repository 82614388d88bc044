"""Exception hierarchy.

Every error carries an ``exit_code`` used by the command line front end:
1 usage/domain, 2 admissibility/unitarity, 3 spectral gap, 4 non-integer
invariant, 5 index obstruction.
"""

from __future__ import annotations


class WalkIndexError(Exception):
    """Base class for all package errors."""

    exit_code = 1


# -- admissibility / unitarity (exit 2) -------------------------------------

class NotUnitary(WalkIndexError):
    exit_code = 2


class NotNormal(WalkIndexError):
    exit_code = 2


class NotAdmissible(WalkIndexError):
    exit_code = 2


class RelationViolation(WalkIndexError):
    """Symmetry operators fail the class relations (squares, commutation)."""

    exit_code = 2


# -- spectral gap (exit 3) ---------------------------------------------------

class Gapless(WalkIndexError):
    exit_code = 3


class SingularBlock(WalkIndexError):
    """Chiral off-diagonal Bloch block is singular at some momentum."""

    exit_code = 3


class RankJump(WalkIndexError):
    """Band projection changes rank across the momentum grid."""

    exit_code = 3


# -- non-integer invariants (exit 4) ------------------------------------------

class NonIntegerTrace(WalkIndexError):
    exit_code = 4


class NonIntegerInvariant(WalkIndexError):
    exit_code = 4


class WindowAmbiguous(WalkIndexError):
    """Eigenvalues sit too close to the edge of a selection window."""

    exit_code = 4


# -- index obstructions (exit 5) ----------------------------------------------

class Obstructed(WalkIndexError):
    """A requested deformation is forbidden by a nonzero index."""

    exit_code = 5


class DimensionMismatch(WalkIndexError):
    """Per-cut overlap/defect spaces differ in dimension."""

    exit_code = 5


class Unbalanced(WalkIndexError):
    """A symmetry representation with nonzero index admits no gapped partner."""

    exit_code = 5


class OddDimensionAII(WalkIndexError):
    """Kramers pairing needs an even dimensional space."""

    exit_code = 5


class DecouplingFailed(WalkIndexError):
    exit_code = 5


# -- usage / domain (exit 1) ---------------------------------------------------

class IllegalForget(WalkIndexError):
    exit_code = 1


class CutOutOfRange(WalkIndexError):
    exit_code = 1


class TooShort(WalkIndexError):
    exit_code = 1


class IncompatibleCells(WalkIndexError):
    exit_code = 1


class NotChiral(WalkIndexError):
    exit_code = 1


class NotDecoupled(WalkIndexError):
    exit_code = 1


class NotEnoughModes(WalkIndexError):
    exit_code = 1


class EigenFailure(WalkIndexError):
    """Numerical eigendecomposition failed its residual check."""

    exit_code = 1
