"""Walk-level symmetry indices.

The central quantity is the symmetry index of the kernel of the imaginary
part ``(W - W*)/2i`` of an essentially unitary operator.  For an exactly
unitary walk that kernel is the direct sum of the eigenspaces at +1 and -1,
split by the sign of the real part ``(W + W*)/2``, giving the pair
``si_pm``; compressing to a half space and excluding modes attributed to
proxy (truncation) ends gives the left/right half-space indices.

Finite segments stand in for half-infinite systems.  Every function that
attributes modes to a cut does so by diagonalizing the weight of the mode
inside the proxy windows (the ``band + 1`` cells next to each proxy end) and
discarding modes that live there; a mode straddling a window boundary raises
``WindowAmbiguous`` instead of being silently assigned.

On a half-infinite lattice the kernel of the compressed imaginary part is
exact, but a finite segment clips the exponential tails of those modes, so
their eigenvalues sit slightly off zero while the rest of the spectrum keeps
an essential gap.  Kernel detection therefore accepts, besides hard zeros, a
magnitude cluster separated from the remaining spectrum by a large ratio and
lying under an absolute ceiling.  Symmetry makes this safe: every admissible
symmetry pairs the +e and -e eigenspaces of the imaginary part, a magnitude
sort can never split such a pair, and a fully included balanced pair
contributes zero to the index.  Every spectrum near +-1, here and in the
finite-size sweeps and certificates, comes from :func:`near_spectrum`.

For a rep with ``gamma`` (the chiral classes AIII, BDI, CII, CI and DIII)
the Hermitian operator anticommutes with ``gamma``: in the cell frame of
``gamma`` it is off-diagonal, and its cluster comes from the singular values
of the off-diagonal block ``C``, read from the operator's stacks with no N x
N array (:func:`_chiral_block`; the chiral index as ``dim ker C - dim ker
C*``), after a half-size Cholesky of ``C* C`` (:func:`_gap_certified`) has
failed to show an empty cluster.  The other classes, anchors other than +-1,
operators under ``CHIRAL_MIN_ROWS`` rows and operators whose ``gamma``-even
part exceeds ``CHIRAL_EVEN_FLOOR`` take the dense route: that certificate on
``H H``, then one ``eigh``.  Only that route, a non-empty cluster's
eigenpairs and class D's determinant place the dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    EigenFailure,
    IncompatibleCells,
    NonIntegerInvariant,
    NonIntegerTrace,
    NotAdmissible,
    NotDecoupled,
    Obstructed,
    TooShort,
    Unbalanced,
    WindowAmbiguous,
)
from .lattice import (
    AMBIGUOUS_WEIGHTS,
    SPLIT_THRESHOLD,
    CellStructure,
    LatticeOperator,
    LocalSymmetryRep,
    cells_near_bond,
    half_spaces,
    split_by_weight,
)
from .operators import (
    INVARIANCE_FLOOR,
    UnitaryEigen,
    check_admissible,
    check_unitary,
    eig_unitary,
    imaginary_part,
    kernel_basis,
    phase_window,
)
from .symmetry import (
    ADMISSIBILITY,
    FLOAT_EPS,
    IndexValue,
    SymmetryClass,
    SymmetryOperator,
    SymmetryRep,
    balanced_hamiltonian,
    block_diagonal,
    frobenius_bound,
    rep_index,
    screened_norm,
    spectral_norm,
    times_runs,
    trace_runs,
)
from .tolerances import DEFAULT_TOL, Tolerances
from .walks import TIWalk, berry_phase, ti_gap_margin, winding_number

__all__ = [
    "near_spectrum",
    "si_pm",
    "si_total",
    "si_left_right",
    "fredholm_index",
    "FredholmReport",
    "twiddle_rep",
    "relative_index",
    "verify_locpert",
    "PerturbationReport",
    "contract_perturbation",
    "bulk_right_index",
    "verify_bulk_boundary",
    "BulkBoundaryReport",
    "index_matrix",
    "IndexMatrix",
]

CHIRAL_UNITARY = (SymmetryClass.AIII, SymmetryClass.BDI, SymmetryClass.CII)

# Essential-gap kernel detection: a magnitude cluster counts as the kernel of
# a compressed imaginary part when it lies under the ceiling and the next
# eigenvalue above it is at least the ratio times larger.
ESSENTIAL_KERNEL_CEILING = 0.1
ESSENTIAL_KERNEL_RATIO = 5.0

# The chiral route (_chiral_route) answers only while the Frobenius norm e of
# the gamma-even blocks of H is at most this floor; every eigenvalue of H then
# lies within e of the +-singular values it reads, and e widens its certified
# radius.  Above the floor the dense eigh decides.
CHIRAL_EVEN_FLOOR = 1e-10

# Below this many rows the dense route is the faster one: _chiral_block costs
# about 150 us at any size.  In split-step index jobs (2 vCPUs, BLAS on 1
# thread) the two pieces' si_total took 1.83 ms dense and 1.82 ms chiral at 48
# rows with boundary modes, 0.44 and 0.68 ms without; 2.45 and 2.15, 0.61 and
# 0.76 ms at 64; si_pm on a circle crosses at 96 rows.  Passes over index_scan
# and decouple_join tie at floors 48 and 64, and are slower at 32 or 80-128.
CHIRAL_MIN_ROWS = 64

# _gap_certified's allowance for the rounding of X* X (H H, or C* C at half
# size) and of its Cholesky, in units of (m + 1) eps max(1, ||X||_F^2) for X
# of m columns.
GAP_CERTIFICATE_SLACK = 4.0

# Proxy-window radii agree when the projections onto their dropped subspaces
# differ by at most this in spectral norm.
WINDOW_AGREEMENT = 1e-8

# index_matrix takes a walk as decoupled at a cut when its commutator with the
# half-space projection is at most max(tol.band, DECOUPLED_FLOOR).
DECOUPLED_FLOOR = 1e-11


def _kernel_cluster(vals: np.ndarray, tol: Tolerances, ceiling: float) -> np.ndarray:
    """Positions of the essential kernel among Hermitian eigenvalues, by magnitude.

    Hard zeros (below ``tol.ker`` relative to scale) always count.  On top of
    those, the largest magnitude cluster below ``ceiling`` that is separated
    from the rest of the spectrum by a factor of at least
    ``ESSENTIAL_KERNEL_RATIO`` is accepted as the finite-size image of an
    exact kernel whose tails leak through the truncation end.
    """
    mag = np.abs(vals)
    order = np.argsort(mag)
    mag = mag[order]
    n = mag.size
    scale = max(1.0, float(mag[-1])) if n else 1.0
    count = int(np.sum(mag <= tol.ker * scale))
    for j in range(n - 1, count, -1):
        if mag[j - 1] > ceiling:
            continue
        if mag[j] >= ESSENTIAL_KERNEL_RATIO * max(mag[j - 1], tol.ker * scale):
            count = j
            break
    return order[:count]


def _gap_certified(gram: np.ndarray, frob: float, tol: Tolerances, ceiling: float, even: float = 0.0) -> bool:
    """True when ``gram - (c^2 + delta)`` has a Cholesky factor, ``delta``
    covering its rounding, for ``gram = X* X`` (shifted in place) and ``frob =
    ||X||_F``, so that :func:`_kernel_cluster` keeps nothing.  For a Hermitian
    ``H``, ``X* X = H H`` and every ``|s| > c = max(ceiling, tol.ker max(1,
    ||H||_F))``.  For the block ``C`` of :func:`_chiral_block` with
    ``gamma``-even norm ``e``, every singular value exceeds ``c = max(ceiling,
    tol.ker max(1, ||C||_F + e)) + e``, and every eigenvalue of ``H``, within
    ``e`` of one, clears the ceiling and the hard zeros.  False decides
    nothing; the caller's ``eigh`` or SVD does."""
    n = gram.shape[0]
    c = max(ceiling, tol.ker * max(1.0, frob + even)) + even
    delta = GAP_CERTIFICATE_SLACK * (n + 1) * FLOAT_EPS * max(1.0, frob**2)
    gram.flat[:: n + 1] -= c * c + delta
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _chord_reach(radius: float) -> float:
    """The largest ``|Im lambda|`` of a unit ``lambda`` within chord ``radius`` of +-1."""
    return radius * np.sqrt(1.0 - radius**2 / 4) if radius < np.sqrt(2.0) else np.inf


def _rep_of(op: LatticeOperator, rep: SymmetryRep | LocalSymmetryRep | None) -> SymmetryRep | LocalSymmetryRep:
    """``rep``, else the cell-local rep of ``op``."""
    r = op.local_rep if rep is None else rep
    if r is None:
        raise NotAdmissible("no symmetry representation supplied or attached")
    return r


def _per_cell(op: LatticeOperator, rep: SymmetryRep | LocalSymmetryRep) -> bool:
    """Whether ``rep`` acts cell by cell on the stacks of ``op``."""
    return not op.cells.one_block and tuple(r.dim for r in getattr(rep, "per_cell", ())) == op.cells.cell_dims


def _chiral_block(
    op: LatticeOperator, rep: SymmetryRep | LocalSymmetryRep, anchor: complex = 1.0
) -> tuple[np.ndarray, float, Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """The off-diagonal block ``C`` of ``H = Im(conj(anchor) W)`` at anchor +-1
    in the frame of ``gamma``, the norm of its ``gamma``-even blocks, and the
    map from frame coordinates (``plus`` on the + side, then ``minus``) to
    vectors of the operator, all from the stacks of ``W``.

    H's stack at offset j is ``(B_j[x] - B_-j[x+j]*)/2i``, wrapped on a circle
    and zero past the ends of a line; anchor -1 negates it.  Each cell's
    :attr:`~walkindex.symmetry.SymmetryRep.chiral_frame` ``F`` moves the
    stacks into the frame, ``F[x+j]* H_j[x] F[x]`` for every offset at once,
    and their + rows and - columns are placed into ``C``, every + row of
    every cell before the - ones.  An operator on mixed or zero-dimensional
    cells, or with a rep that does not act cell by cell (as a cell-local rep
    on a :meth:`~walkindex.lattice.LatticeOperator.one_cell` operator), is
    one cell whose frame is the block diagonal of its cells' frames."""
    cells, runs = op.cells, rep.runs()
    if _per_cell(op, rep):
        stacks, n, d = op.blocks, cells.n_cells, cells.cell_dims[0]
        which = np.repeat(np.arange(len(runs)), [count for _, count, _ in runs])
        frames = np.array([cell.chiral_frame[0] for _, _, cell in runs])[which]
        n_plus = np.array([cell.chiral_frame[1] for _, _, cell in runs])[which]
    else:  # one block is its own matrix, unplaced
        stacks, n, d = {0: op.matrix[None]}, 1, op.dim
        frame = [cell.chiral_frame for _, count, cell in runs for _ in range(count)]
        sides = [block_diagonal([b[:, :p] for b, p in frame]), block_diagonal([b[:, p:] for b, p in frame])]
        frames, n_plus = np.hstack(sides)[None], np.array([sides[0].shape[1]])
    offsets = sorted({0} | set(stacks) | {int(cells.stored_offset(-j)) for j in stacks})
    target = np.array(offsets)[:, None] + np.arange(n)
    inside = (target >= 0) & (target < n) | (cells.topology == "circle")
    target %= n
    ahead = np.array([stacks.get(j, np.zeros((n, d, d), dtype=complex)) for j in offsets])
    back = ahead[[offsets.index(cells.stored_offset(-j)) for j in offsets]][np.arange(len(offsets))[:, None], target]
    back[~inside] = 0
    h = (ahead - back.conj().swapaxes(-1, -2)) / 2j
    g = frames.conj().swapaxes(-1, -2)[target] @ (h if anchor == 1 else -h) @ frames
    # frame vector r of cell x is + for r < n_plus[x]; rows[x, r] is its row
    # of C on the + side, and cols[x, r] its column on the - side, else -1
    plus = np.arange(d) < n_plus[:, None]
    rows = np.where(plus, np.cumsum(plus).reshape(n, d) - 1, -1)
    cols = np.where(~plus, np.cumsum(~plus).reshape(n, d) - 1, -1)
    off = inside[:, :, None, None] & plus[target][:, :, :, None] & ~plus[None, :, None, :]
    even = inside[:, :, None, None] & (plus[target][:, :, :, None] == plus[None, :, None, :])
    c = np.zeros((int(plus.sum()), n * d - int(plus.sum())), dtype=complex)
    at = np.nonzero(off)
    c[rows[target[at[0], at[1]], at[2]], cols[at[1], at[3]]] = g[off]

    def kept(plus_side: np.ndarray, minus_side: np.ndarray) -> np.ndarray:
        z = np.zeros((n, d, plus_side.shape[1] + minus_side.shape[1]), dtype=complex)
        z[rows >= 0, : plus_side.shape[1]] = plus_side[rows[rows >= 0]]
        z[cols >= 0, plus_side.shape[1] :] = minus_side[cols[cols >= 0]]
        return (frames @ z).reshape(n * d, z.shape[2])

    return c, frobenius_bound(g[even]), kept


def _chiral_route(op: LatticeOperator, rep: SymmetryRep | LocalSymmetryRep | None, anchor: complex = 1.0):
    """The :func:`_chiral_block` of ``op`` for a rep with ``gamma`` at anchor
    +-1, of at least ``CHIRAL_MIN_ROWS`` rows and a ``gamma``-even norm at most
    ``CHIRAL_EVEN_FLOOR``; else None, the dense route."""
    if rep is None or anchor not in (1, -1) or op.dim < CHIRAL_MIN_ROWS or "gamma" not in rep.runs()[0][2].ops:
        return None
    block = _chiral_block(op, rep, anchor)
    return block if block[1] <= CHIRAL_EVEN_FLOOR else None


def _chiral_cluster(
    block: tuple, tol: Tolerances, ceiling: float, radius: float | None = None
) -> tuple[np.ndarray, float]:
    """The cluster of ``H`` from the singular values of its off-diagonal block
    ``C`` (:func:`_chiral_block`): kept basis and smallest ``|s|``.

    ``H`` is ``[[E+, C], [C*, E-]]`` in the frame, with ``e = ||E+ (+) E-||_F``
    rounding for an admissible walk.  The eigenvalues of its off-diagonal
    part are ``+-sigma`` for each singular value of ``C`` and ``|n+ - n-|``
    exact zeros, and those of ``H`` lie within ``e`` of them.  These go
    through :func:`_kernel_cluster` under ``ceiling`` or, with a chord
    ``radius``, ``sigma <= r sqrt(1 - r^2/4) + e``, a set holding every
    eigenvalue of ``H`` that the radius reaches.  A kept ``sigma`` contributes
    its left singular vector on the + side and its right one on the - side,
    which span the eigenvectors of ``+-sigma``."""
    c, even, kept = block
    n_p, n_m = c.shape
    zeros = abs(n_p - n_m)
    u, s, vh = np.linalg.svd(c)
    r = s.size
    smallest = 0.0 if zeros else float(s[-1])
    if radius is None:
        # a pair +-sigma is never split, so the cluster is the zeros and the
        # k smallest sigma
        k = (_kernel_cluster(np.concatenate([np.zeros(zeros), s, s]), tol, ceiling).size - zeros) // 2
    else:
        k = int(np.count_nonzero(s <= _chord_reach(radius) + even))
    if not (k or zeros):
        return np.zeros((n_p + n_m, 0), dtype=complex), smallest
    # kept: the left singular vectors of the k smallest sigma on the + side,
    # their right ones on the - side, and the null vectors of C* or C
    return kept(u[:, r - k :], vh[r - k :].conj().T), smallest


def _essential_kernel(
    op: LatticeOperator,
    tol: Tolerances,
    ceiling: float = ESSENTIAL_KERNEL_CEILING,
    rep: SymmetryRep | LocalSymmetryRep | None = None,
) -> np.ndarray:
    """Eigenvectors of ``Im W`` converging to its half-space kernel.

    The chiral route (:func:`_chiral_route`) where it answers: with ``n+ =
    n-``, a Cholesky of ``C* C`` at half size first certifies an empty
    cluster (:func:`_gap_certified`), else :func:`_chiral_cluster`.
    Otherwise the certificate of ``Im W`` and one ``eigh``."""
    block = _chiral_route(op, rep)
    if block is not None:
        c, even, _ = block
        if c.shape[0] == c.shape[1] and _gap_certified(c.conj().T @ c, frobenius_bound(c), tol, ceiling, even):
            return np.zeros((op.dim, 0), dtype=complex)
        return _chiral_cluster(block, tol, ceiling)[0]
    h = imaginary_part(op.matrix)
    if _gap_certified(h @ h, frobenius_bound(h), tol, ceiling):
        return np.zeros((h.shape[0], 0), dtype=h.dtype)
    vals, vecs = np.linalg.eigh(h)
    return vecs[:, _kernel_cluster(vals, tol, ceiling)]


def near_spectrum(
    op: LatticeOperator,
    anchor: complex = 1.0,
    tol: Tolerances = DEFAULT_TOL,
    radius: float | None = None,
    ceiling: float = ESSENTIAL_KERNEL_CEILING,
    rep: SymmetryRep | LocalSymmetryRep | None = None,
) -> tuple[UnitaryEigen, float]:
    """Eigenpairs of a unitary ``W`` near ``+-anchor``, and the smallest ``|s|``.

    The spectrum of ``Im(conj(anchor) W)``, a function of ``W`` that is ``s =
    Im(conj(anchor) lambda)`` on the eigenvectors of ``lambda``.  Kept is the
    essential kernel of ``s`` under ``ceiling`` or, for a chord ``radius`` r
    < sqrt 2, ``|s| <= r sqrt(1 - r^2/4)``: the ``lambda`` within r of
    ``+-anchor``.  Where the chiral route answers (:func:`_chiral_route`),
    the ``s`` come off the half-size off-diagonal block
    (:func:`_chiral_cluster`), with no certificate, as the exact smallest
    ``|s|`` is returned; otherwise one ``eigh``.  Then
    :func:`_eigenpairs_on` the kept columns.
    """
    block = _chiral_route(op, rep, anchor)
    if block is not None:
        found = _chiral_cluster(block, tol, ceiling, radius)
    else:
        m = op.matrix
        s, vecs = np.linalg.eigh(imaginary_part(m if anchor == 1 else np.conj(anchor) * m))
        if radius is None:
            keep = _kernel_cluster(s, tol, ceiling)
        else:
            keep = np.abs(s) <= _chord_reach(radius)
        found = vecs[:, keep], float(np.min(np.abs(s), initial=np.inf))
    basis, smallest = found
    return _eigenpairs_on(op.matrix, basis, tol), smallest


def _eigenpairs_on(m: np.ndarray, basis: np.ndarray, tol: Tolerances) -> UnitaryEigen:
    """Eigenpairs of a unitary ``W`` on the span of ``basis``, nearly invariant.

    One QR makes the columns orthonormal (``eigh`` may return near-degenerate
    ones that are not); ``W`` must map them into their span within
    ``max(tol.eig, INVARIANCE_FLOOR d)`` (``EigenFailure``), and the
    eigenpairs are those of the compression of ``W`` onto them."""
    q, _ = np.linalg.qr(basis)
    image = m @ q
    c = q.conj().T @ image
    residual = spectral_norm(image - q @ c)
    if residual > max(tol.eig, INVARIANCE_FLOOR * m.shape[0]):
        raise EigenFailure(f"near-anchor invariance residual {residual:.3e}")
    eig = eig_unitary(c, tol)
    # ||W Q u - Q u D|| <= ||W Q - Q C|| + ||C u - u D||
    return UnitaryEigen(eig.values, q @ eig.vectors, residual + eig.residual)


def _pm_eigenspaces(
    op: LatticeOperator,
    tol: Tolerances,
    ceiling: float = ESSENTIAL_KERNEL_CEILING,
    rep: SymmetryRep | LocalSymmetryRep | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Bases of the -1 and +1 eigenspaces: the eigenpairs (:func:`_eigenpairs_on`)
    on the :func:`_essential_kernel` of ``Im W``, split by ``Re lambda``."""
    basis = _essential_kernel(op, tol, ceiling, rep)
    if not basis.shape[1]:
        return (np.zeros((op.dim, 0), dtype=complex),) * 2
    near = _eigenpairs_on(op.matrix, basis, tol)
    minus = near.values.real < 0
    return near.vectors[:, minus], near.vectors[:, ~minus]


def _proxy_members(cells: CellStructure, radius: int) -> tuple[int, ...]:
    """Cells inside the exclusion window of the given radius at each proxy end."""
    n = cells.n_cells
    members: set[int] = set()
    if "left" in cells.proxy_ends:
        members.update(range(min(radius, n)))
    if "right" in cells.proxy_ends:
        members.update(range(max(0, n - radius), n))
    return tuple(sorted(members))


def _drop_window(
    basis: np.ndarray,
    cells: CellStructure,
    band: int,
    what: str,
) -> np.ndarray:
    """Drop the part of a subspace attributed to the proxy ends.

    Boundary modes of generic gapped walks decay on a localization length
    that can exceed the band, so no fixed window is safe: too narrow leaves
    part of an end mode outside, too wide can bisect a balanced pair created
    by a perturbation deeper in the segment.  The window therefore scans
    from ``band + 1`` cells to half the segment and every radius with an
    unambiguous split must yield the same dropped subspace.  End modes
    resolve once the window contains their tail and the split then stays
    put, while a subspace straddling some window edge changes the split
    between radii and is refused rather than cut.

    One batched ``eigh`` takes every radius's weight operator, a prefix sum
    of the cell Gram blocks ``B_x* B_x`` from each proxy end.  The basis is
    orthonormal, so radii agree when their dropped eigenvectors ``U``, ``V``
    have ``||U - V V* U|| <= WINDOW_AGREEMENT`` (``screened_norm``, of all
    radii side by side before each one), and a rank change disagrees.  The
    kept columns are ``split_by_weight``'s at the first unambiguous radius."""
    if basis.shape[1] == 0 or not cells.proxy_ends:
        return basis
    n, k = cells.n_cells, basis.shape[1]
    r_lo = band + 1
    # with proxies at both ends the windows must never tile the whole piece,
    # or modes legitimately living in the middle would be absorbed
    # a piece too short to scan is tried at the band radius alone
    r_hi = max(r_lo, (n - 1) // 2 if len(cells.proxy_ends) == 2 else (n + 1) // 2)
    radii = np.arange(r_lo, r_hi + 1)
    # weight of the cells before x, and of the cells from x on
    gram = np.zeros((basis.shape[0] + 2, k, k), dtype=basis.dtype)
    gram[1:-1] = basis.conj()[:, :, None] * basis[:, None, :]
    at = list(cells.offsets)
    before, after = np.cumsum(gram, axis=0)[at], np.cumsum(gram[::-1], axis=0)[::-1][1:][at]
    lo_cut = np.minimum(radii, n) if "left" in cells.proxy_ends else np.zeros_like(radii)
    hi_cut = np.maximum(lo_cut, n - radii) if "right" in cells.proxy_ends else np.full_like(radii, n)
    vals, vecs = np.linalg.eigh(before[lo_cut] + after[hi_cut])
    clear = ~np.any((vals > AMBIGUOUS_WEIGHTS[0]) & (vals < AMBIGUOUS_WEIGHTS[1]), axis=1)
    if not clear.any():
        raise WindowAmbiguous(
            f"{what} modes straddle every proxy window (radii {r_lo}..{r_hi})"
        )
    ranks = np.sum(vals[clear] >= SPLIT_THRESHOLD, axis=1)
    # eigh sorts ascending, so the dropped eigenvectors are the last columns
    dropped = vecs[clear][:, :, k - ranks[0] :]
    diff = dropped[1:] - dropped[0] @ (dropped[0].conj().T @ dropped[1:])
    # side by side, the differences have a norm at least each one's
    if np.any(ranks != ranks[0]) or (
        screened_norm(diff.swapaxes(0, 1).reshape(k, -1), WINDOW_AGREEMENT) > WINDOW_AGREEMENT
        and any(screened_norm(d, WINDOW_AGREEMENT) > WINDOW_AGREEMENT for d in diff)
    ):
        raise WindowAmbiguous(
            f"attribution of {what} modes to the proxy ends depends on "
            f"the window radius (radii {r_lo}..{r_hi})"
        )
    return split_by_weight(basis, cells, _proxy_members(cells, int(radii[clear][0])))[1]


def _restricted_index(
    rep: SymmetryRep | LocalSymmetryRep, basis: np.ndarray, tol: Tolerances
) -> IndexValue:
    if basis.shape[1] == 0:
        return IndexValue.zero(rep.cls.index_group)
    return rep_index(rep.restrict(basis, tol), tol)


# -- si of eigenspaces -------------------------------------------------------------


def si_pm(
    w: LatticeOperator,
    rep: SymmetryRep | LocalSymmetryRep | None = None,
    ceiling: float = ESSENTIAL_KERNEL_CEILING,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[IndexValue, IndexValue]:
    """Symmetry indices of the -1 and +1 eigenspaces of a unitary walk.

    Returns ``(si_minus, si_plus)`` of the cluster of ``Im W`` under
    ``ceiling`` (see :func:`_pm_eigenspaces`).  Cross-checked against the
    closed forms available per class: ``si_pm = tr(gamma (1 +- W))/2`` for
    the unitary chiral classes (``gamma`` being cell-local, ``tr(gamma W)``
    reads only the offset-0 stack of ``W``, its diagonal cell blocks) and
    the determinant parity ``det W = (-1)^{si_minus}`` in class D, both
    within ``tol.idx``.
    """
    r = _rep_of(w, rep)
    check_unitary(w, tol)
    check_admissible(w, r, tol=tol)
    minus, plus = _pm_eigenspaces(w, tol, ceiling, r)
    si_minus = _restricted_index(r, minus, tol)
    si_plus = _restricted_index(r, plus, tol)
    if r.cls in CHIRAL_UNITARY:
        runs = r.runs()
        trace_g = trace_runs(runs, "gamma")
        zero = np.zeros((w.cells.n_cells,) + w.cells.cell_dims[:1] * 2)
        trace_gw = trace_runs(runs, "gamma", w.blocks.get(0, zero) if _per_cell(w, r) else w.matrix)
        for sign, got in ((-1.0, si_minus), (+1.0, si_plus)):
            t = (trace_g + sign * trace_gw) / 2
            if abs(t - int(got)) > tol.idx:
                raise NonIntegerTrace(
                    f"eigenspace index {int(got)} disagrees with "
                    f"tr(gamma(1{sign:+.0f}W))/2 = {t:.6g}"
                )
    elif r.cls is SymmetryClass.D:
        det = complex(np.linalg.det(w.matrix))
        if abs(det - (-1.0) ** int(si_minus)) > tol.idx:
            raise NonIntegerTrace(
                f"det W = {det:.6g} disagrees with parity of si_minus = {int(si_minus)}"
            )
    return si_minus, si_plus


def si_total(
    w: LatticeOperator,
    rep: SymmetryRep | LocalSymmetryRep | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> IndexValue:
    """Symmetry index of an essentially unitary operator.

    The index of the representation restricted to the kernel of the imaginary
    part.  Kernel modes living in the proxy windows of the operator's proxy
    ends are truncation artifacts and are excluded.

    The kernel is detected by the essential-gap rule (see the module
    docstring), so boundary modes whose tails are clipped by a finite
    truncation are still counted.
    """
    r = _rep_of(w, rep)
    check_admissible(w, r, tol=tol)
    ker = _essential_kernel(w, tol, rep=r)
    if ker.shape[1]:
        ker = _drop_window(ker, w.cells, w.band, "kernel")
    return _restricted_index(r, ker, tol)


def si_left_right(
    w: LatticeOperator,
    a: int,
    second_cut: int | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[IndexValue, IndexValue]:
    """Left and right half-space indices of a banded walk at the cut ``a``.

    Each half space (see :func:`~walkindex.lattice.half_spaces`) is measured
    by :func:`si_total`, so modes at the far (proxy) end of each piece are
    excluded and only modes created at the cut count.  On a circle a second
    cut (default: antipodal) makes the pieces finite.  A line takes no
    second cut.
    """
    left, right = half_spaces(w, a, second_cut)
    for piece in (left, right):
        if piece.cells.n_cells < w.band + 2:
            raise TooShort(
                f"half-space piece of {piece.cells.n_cells} cells cannot separate "
                f"the cut from the proxy window (band {w.band})"
            )
    return si_total(left, tol=tol), si_total(right, tol=tol)


# -- Fredholm index ----------------------------------------------------------------


@dataclass(frozen=True)
class FredholmReport:
    """Kernel-count and windowed-trace routes to the half-space Fredholm index."""

    index: int
    kernel_dim: int
    cokernel_dim: int
    trace_route: float
    cut: int

    def __int__(self) -> int:
        return self.index


def fredholm_index(
    w: LatticeOperator,
    a: int,
    tol: Tolerances = DEFAULT_TOL,
) -> FredholmReport:
    """Index of the compression of a unitary walk to the half space ``>= a``.

    ``dim ker(PWP) - dim ker(PW*P)`` with far-end (proxy) kernel modes
    excluded, cross-checked against the trace of ``W P W* - P`` over the
    cells within ``2 * band`` of the cut (all its nonzero diagonal lives
    there for banded unitary ``W``).
    """
    if w.cells.topology != "line":
        raise IncompatibleCells("the Fredholm index needs a line segment")
    _, piece = half_spaces(w, a)
    dims = []
    for m in (piece.matrix, piece.matrix.conj().T):
        ker = _drop_window(kernel_basis(m, tol.ker), piece.cells, w.band, "kernel")
        dims.append(ker.shape[1])
    kernel_dim, cokernel_dim = dims
    index = kernel_dim - cokernel_dim

    p = w.cells.index_mask(range(a, w.cells.n_cells)).astype(float)
    diff = (w.matrix * p[None, :]) @ w.matrix.conj().T - np.diag(p)
    window = w.cells.index_mask(cells_near_bond(w.cells, a, max(2 * w.band, 1)))
    trace = float(np.real(np.sum(np.diag(diff)[window])))
    if abs(trace - index) > tol.idx:
        raise NonIntegerInvariant(
            f"kernel route {index} and windowed trace {trace:.6g} disagree"
        )
    return FredholmReport(index, kernel_dim, cokernel_dim, trace, a)


# -- relative index of perturbations ------------------------------------------------


def twiddle_rep(
    w: LatticeOperator, rep: SymmetryRep | LocalSymmetryRep | None = None, tol: Tolerances = DEFAULT_TOL
) -> SymmetryRep:
    """The companion representation with the walk folded into the operators.

    Keeps ``eta`` and replaces ``tau -> W tau``, ``gamma -> W gamma``; the
    result is a representation of the same class, and a unitary ``V``
    commuting with ``W`` up to finite rank is admissible for it whenever
    ``VW`` is admissible for the original.  Each dense matrix is ``W M`` (or
    ``1 M`` for ``eta``), one column pass per run of cells.  It is not
    validated: its relations follow from ``rep``'s and the checks of ``W``.
    Its restriction to a subspace needs none of these matrices:
    :func:`~walkindex.symmetry.restrict_runs` with ``walk=W``.
    """
    r = _rep_of(w, rep)
    m = w.matrix
    check_unitary(w, tol, "walk")
    check_admissible(w, r, tol=tol)
    runs = r.runs()
    ops = {}
    for name, op in runs[0][2].ops.items():
        adjoint, _ = ADMISSIBILITY[name]
        x = m if adjoint else np.eye(len(m))
        ops[name] = SymmetryOperator(times_runs(x, runs, name), op.antiunitary)
    return SymmetryRep(r.cls, ops, m.shape[0])


def relative_index(
    w: LatticeOperator,
    w_prime: LatticeOperator,
    rep: SymmetryRep | LocalSymmetryRep | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> IndexValue:
    """Index of a gentle perturbation ``W -> W'``.

    The index of the companion (twiddle) representation on the -1-eigenspace
    of ``V = W' W*``; zero exactly when the perturbation can be contracted
    back to the identity through admissible unitaries.
    """
    r = _rep_of(w, rep)
    check_unitary(w_prime, tol)
    check_admissible(w_prime, r, tol=tol)
    trep = twiddle_rep(w, r, tol)
    v = LatticeOperator.one_cell(w_prime.matrix @ w.matrix.conj().T)
    check_unitary(v, tol)
    minus, _ = _pm_eigenspaces(v, tol)
    return _restricted_index(trep, minus, tol)


@dataclass(frozen=True)
class PerturbationReport:
    """Both sides of the relative-index identities for a perturbation."""

    relative: IndexValue
    si_minus_before: IndexValue
    si_minus_after: IndexValue
    si_plus_before: IndexValue
    si_plus_after: IndexValue

    @property
    def minus_identity_ok(self) -> bool:
        return self.relative == self.si_minus_after - self.si_minus_before

    @property
    def plus_identity_ok(self) -> bool:
        return self.relative == -(self.si_plus_after - self.si_plus_before)

    @property
    def ok(self) -> bool:
        return self.minus_identity_ok and self.plus_identity_ok


def verify_locpert(
    w: LatticeOperator,
    w_prime: LatticeOperator,
    rep: SymmetryRep | LocalSymmetryRep | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> PerturbationReport:
    """Check that the relative index matches the change of si_pm.

    The relative index of ``W -> W'`` equals ``si_minus(W') - si_minus(W)``
    and ``-(si_plus(W') - si_plus(W))``, as exact group identities.
    """
    r = _rep_of(w, rep)
    rel = relative_index(w, w_prime, r, tol)
    m_before, p_before = si_pm(w, r, tol=tol)
    m_after, p_after = si_pm(w_prime, r, tol=tol)
    return PerturbationReport(rel, m_before, m_after, p_before, p_after)


def contract_perturbation(v, trep: SymmetryRep, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Admissible Hermitian generator ``K`` with ``exp(iK) = V``.

    ``t -> exp(i(1-t)K)`` is then a norm-continuous path of admissible
    unitaries from ``V`` to the identity.  Conjugate eigenvalue pairs rotate
    along the shorter arc to +1; the -1-eigenspace (selected by
    :func:`~walkindex.operators.phase_window`) moves through
    ``exp(i pi (1-t) H)`` with ``H`` a gapped admissible generator, so it
    stays clear of -1.  Such an ``H`` exists exactly when the index of
    ``trep`` on that eigenspace vanishes (``Obstructed`` otherwise).  ``K``
    is checked once as a Hamiltonian for ``trep``; it is admissible exactly
    when ``V`` is, since the principal logarithm meets no eigenvalue at -1
    outside the balanced block.

    ``trep`` is the companion rep on the space of ``V``: the whole space, or
    an invariant subspace off which the perturbation is the identity, as
    :func:`~walkindex.decoupling.gentle_decoupling` passes the compression
    to range(P - Q) and embeds the generator back.
    """
    eig = eig_unitary(np.asarray(v, dtype=complex), tol)
    at_minus = phase_window(eig, -1.0, tol=tol)
    rotating = eig.vectors[:, ~at_minus]
    k = rotating @ (np.angle(eig.values[~at_minus])[:, None] * rotating.conj().T)
    minus_basis = eig.vectors[:, at_minus]
    if minus_basis.shape[1]:
        try:
            h_small = balanced_hamiltonian(trep.restrict(minus_basis, tol), tol)
        except Unbalanced as exc:
            raise Obstructed(
                f"-1-eigenspace: {exc}; no admissible contraction exists"
            ) from exc
        k = k + np.pi * (minus_basis @ h_small @ minus_basis.conj().T)
    k = (k + k.conj().T) / 2
    check_admissible(LatticeOperator.one_cell(k), trep, kind="hamiltonian", tol=tol)
    return k


# -- bulk-boundary correspondence ----------------------------------------------------


def bulk_right_index(ti: TIWalk, tol: Tolerances = DEFAULT_TOL) -> IndexValue:
    """Right half-space index of a gapped translation-invariant walk.

    Computed in momentum space: winding number for the unitarily chiral
    classes, band-frame phase for D and DIII, and the zero element for the
    classes with trivial index group.
    """
    if ti.cls in CHIRAL_UNITARY:
        return winding_number(ti, tol=tol).value
    if ti.cls in (SymmetryClass.D, SymmetryClass.DIII):
        return berry_phase(ti, tol=tol).value
    ti_gap_margin(ti, tol=tol, strict=True)
    return IndexValue.zero(ti.cls.index_group)


@dataclass(frozen=True)
class BulkBoundaryReport:
    """Interface index versus the difference of bulk indices."""

    si_right_left_bulk: IndexValue
    si_right_right_bulk: IndexValue
    expected: IndexValue
    measured: IndexValue
    protected_dim: int

    @property
    def dimension_bound_ok(self) -> bool:
        return self.protected_dim >= abs(int(self.expected))

    @property
    def ok(self) -> bool:
        return self.measured == self.expected and self.dimension_bound_ok


def verify_bulk_boundary(
    left: TIWalk,
    right: TIWalk,
    joined: LatticeOperator,
    tol: Tolerances = DEFAULT_TOL,
) -> BulkBoundaryReport:
    """Compare the interface index of a joined walk with its bulk prediction.

    The interface must host symmetry-protected eigenvalues carrying index
    ``si_right(right bulk) - si_right(left bulk)``; the joined operator is a
    segment whose outer ends are proxies, so near-(+-1) modes inside the
    proxy windows are excluded and the rest are attributed to the interface.
    The near-(+-1) modes are the essential-gap cluster of ``Im W`` (see the
    module docstring), so boundary eigenvalues that a finite system splits
    slightly off +-1 still count.
    """
    if left.cls is not right.cls:
        raise IncompatibleCells(
            f"bulk classes {left.cls.value} and {right.cls.value} differ"
        )
    if joined.cells.topology != "line":
        raise IncompatibleCells(
            "interface attribution needs a segment; on a circle every arc has two interfaces"
        )
    sir_left = bulk_right_index(left, tol)
    sir_right = bulk_right_index(right, tol)
    expected = sir_right - sir_left

    r = _rep_of(joined, None)
    check_unitary(joined, tol)
    check_admissible(joined, tol=tol)
    basis = np.hstack(_pm_eigenspaces(joined, tol, rep=r))
    basis = _drop_window(basis, joined.cells, joined.band, "protected")
    measured = _restricted_index(r, basis, tol)
    return BulkBoundaryReport(sir_left, sir_right, expected, measured, basis.shape[1])


# -- the 2x2 index table of a decoupled walk -----------------------------------------


@dataclass(frozen=True)
class IndexMatrix:
    """si of each eigenvalue/side pair for a walk decoupled at a cut.

    Rows are the -1 and +1 eigenspaces, columns the left and right blocks;
    marginals recover si_pm (rows), the half-space indices (columns), and
    the total.
    """

    si_minus_left: IndexValue
    si_minus_right: IndexValue
    si_plus_left: IndexValue
    si_plus_right: IndexValue

    @property
    def si_minus(self) -> IndexValue:
        return self.si_minus_left + self.si_minus_right

    @property
    def si_plus(self) -> IndexValue:
        return self.si_plus_left + self.si_plus_right

    @property
    def si_left(self) -> IndexValue:
        return self.si_minus_left + self.si_plus_left

    @property
    def si_right(self) -> IndexValue:
        return self.si_minus_right + self.si_plus_right

    @property
    def total(self) -> IndexValue:
        return self.si_left + self.si_right

    def as_table(self) -> dict[str, int]:
        return {
            "minus_left": int(self.si_minus_left),
            "minus_right": int(self.si_minus_right),
            "plus_left": int(self.si_plus_left),
            "plus_right": int(self.si_plus_right),
        }


def index_matrix(
    w: LatticeOperator,
    a: int,
    tol: Tolerances = DEFAULT_TOL,
) -> IndexMatrix:
    """The 2x2 table of indices of a walk that is decoupled at cut ``a``.

    Requires ``W`` to commute with the half-space projection (each block is
    then unitary) and to carry a cell-local representation, which restricts
    to each block.  Within each block, +-1 eigenmodes in the far proxy
    window are excluded, so the entries are the cut's own contributions.
    """
    if w.cells.topology != "line":
        raise IncompatibleCells("the index table needs a decoupled line segment")
    p = w.cells.index_mask(range(a, w.cells.n_cells)).astype(float)
    bound = max(tol.band, DECOUPLED_FLOOR)
    comm = screened_norm(w.matrix * p[None, :] - p[:, None] * w.matrix, bound)
    if comm > bound:
        raise NotDecoupled(
            f"walk does not commute with the half-space projection at {a}: "
            f"residual {comm:.3e}"
        )
    entries: dict[str, IndexValue] = {}
    for side, piece in zip(("left", "right"), half_spaces(w, a)):
        check_unitary(piece, tol)
        if piece.local_rep is None:
            raise NotAdmissible("the index table needs a cell-local representation")
        pm = _pm_eigenspaces(piece, tol, rep=piece.local_rep)
        for name, basis in zip(("minus", "plus"), pm):
            basis = _drop_window(basis, piece.cells, w.band, f"{side} {name}")
            entries[f"si_{name}_{side}"] = _restricted_index(piece.local_rep, basis, tol)
    return IndexMatrix(**entries)
