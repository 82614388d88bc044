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
of the off-diagonal block, a matrix of half the size (:func:`_chiral_cluster`;
the chiral index as ``dim ker C - dim ker C*``).  The other classes, anchors
other than +-1, operators under ``CHIRAL_MIN_ROWS`` rows and operators whose
``gamma``-even part exceeds ``CHIRAL_EVEN_FLOOR`` take one ``eigh``, and a
kernel search there first tries :func:`_gap_certified`, a Cholesky in place
of the ``eigh`` where the cluster is empty.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    Runs,
    SymmetryClass,
    SymmetryOperator,
    SymmetryRep,
    balanced_hamiltonian,
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

# The chiral route (_chiral_cluster) answers only while the Frobenius norm e of
# the gamma-even blocks of H is at most this floor; every eigenvalue of H then
# lies within e of the +-singular values it reads, and e widens its certified
# radius.  Above the floor the dense eigh decides.
CHIRAL_EVEN_FLOOR = 1e-10

# Below these many rows the dense route is the faster one: its certificate and
# eigh cost fewer numpy calls than the chiral route's frame products and SVD.
# Timed per kernel search inside the benchmark's jobs (BLAS on 1 thread): a
# search with boundary modes likely took 223 us dense and 257 us chiral at 32
# rows, 469 us and 374 us at 48; one on a closed operator, where the chiral
# route starts with a values-only SVD against the dense Cholesky certificate,
# 259 and 425 us at 64 rows, 1112 and 1128 us at 128, 3682 and 2944 us at 192.
CHIRAL_MIN_ROWS = 48
CHIRAL_CERTIFICATE_MIN_ROWS = 128

# _gap_certified's allowance for the rounding of H H and of its Cholesky, in
# units of (N + 1) eps max(1, ||H||_F^2).
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


def _gap_certified(h: np.ndarray, tol: Tolerances, ceiling: float) -> bool:
    """True when ``H H - (c^2 + delta)`` has a Cholesky factor, ``delta``
    covering its rounding: every eigenvalue of ``h`` then has ``|s| > c =
    max(ceiling, tol.ker max(1, ||H||_F))`` and :func:`_kernel_cluster` keeps
    nothing.  False decides nothing; the caller's ``eigh`` does."""
    n = h.shape[0]
    frob = frobenius_bound(h)
    c = max(ceiling, tol.ker * max(1.0, frob))
    delta = GAP_CERTIFICATE_SLACK * (n + 1) * FLOAT_EPS * max(1.0, frob**2)
    a = h @ h
    a.flat[:: n + 1] -= c * c + delta
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _chord_reach(radius: float) -> float:
    """The largest ``|Im lambda|`` of a unit ``lambda`` within chord ``radius`` of +-1."""
    return radius * np.sqrt(1.0 - radius**2 / 4) if radius < np.sqrt(2.0) else np.inf


def _gamma_runs(
    rep: SymmetryRep | LocalSymmetryRep, rows: int, likely_empty: bool = False
) -> Runs | None:
    """The runs of a rep with ``gamma``, which the chiral route reads, for an
    operator of at least ``CHIRAL_MIN_ROWS`` rows (``CHIRAL_CERTIFICATE_MIN_ROWS``
    where an empty cluster is likely); else None, the dense route."""
    if rows < (CHIRAL_CERTIFICATE_MIN_ROWS if likely_empty else CHIRAL_MIN_ROWS):
        return None
    runs = rep.runs()
    return runs if "gamma" in runs[0][2].ops else None


def _chiral_blocks(runs: Runs) -> tuple[list, int]:
    """The frame of :func:`_chiral_cluster`, one entry per run and side of
    ``gamma``: (rows of the operator, cell count, cell dimension, the side's
    columns of the cell's chiral frame, rows in the frame).  The frame puts
    every + row first; also returned is their number ``n+``."""
    n_p = sum(count * cell.chiral_frame[1] for _, count, cell in runs)
    blocks = []
    at = [0, n_p]
    for start, count, cell in runs:
        basis, n_plus = cell.chiral_frame
        for side, cols in enumerate((basis[:, :n_plus], basis[:, n_plus:])):
            if cols.shape[1]:
                width = count * cols.shape[1]
                src = slice(start, start + count * cell.dim)
                blocks.append((src, count, cell.dim, cols, slice(at[side], at[side] + width)))
                at[side] += width
    return blocks, n_p


def _chiral_cluster(
    h: np.ndarray,
    runs: Runs,
    tol: Tolerances,
    ceiling: float,
    radius: float | None = None,
    likely_empty: bool = False,
) -> tuple[np.ndarray, float] | None:
    """The cluster of a Hermitian ``h`` that anticommutes with ``gamma``, from the
    singular values of its off-diagonal block: kept basis and smallest ``|s|``.

    In each cell's :attr:`~walkindex.symmetry.SymmetryRep.chiral_frame`, ``h``
    is ``[[E+, C], [C*, E-]]`` with ``C`` of ``n+`` rows and ``n-`` columns;
    ``e = ||E+ (+) E-||_F`` is rounding for an admissible walk.  The
    eigenvalues of the off-diagonal part are ``+-sigma`` for each singular
    value of ``C`` and ``|n+ - n-|`` exact zeros, and those of ``h`` lie
    within ``e`` of them.  These magnitudes go through
    :func:`_kernel_cluster` under ``ceiling`` or, with a chord ``radius``,
    ``sigma <= r sqrt(1 - r^2/4) + e``, a set holding every eigenvalue of
    ``h`` that the radius reaches.  A kept pair ``sigma`` contributes its left
    singular vector on the + side and its right one on the - side, which
    span the eigenvectors of ``+-sigma``.  With ``likely_empty`` and ``n+ =
    n-``, a values-only SVD first shows every ``sigma > max(ceiling, tol.ker
    max(1, sigma_max + e)) + e``, where the cluster is empty, and no vectors
    are computed.  None when ``e > CHIRAL_EVEN_FLOOR``: the caller's dense
    route decides."""
    n = h.shape[0]
    blocks, n_p = _chiral_blocks(runs)
    # H in the frame: B* H B for the block-diagonal B of the cell bases, one
    # batched product per run and side on the rows and one on the columns
    rows = np.empty_like(h)
    hf = np.empty_like(h)
    for src, count, d, cols, dst in blocks:
        out = rows[dst].reshape(count, cols.shape[1], n)
        np.matmul(cols.conj().T, h[src].reshape(count, d, n), out=out)
    for src, count, d, cols, dst in blocks:
        out = hf[:, dst].reshape(n, count, cols.shape[1])
        np.matmul(rows[:, src].reshape(n, count, d), cols, out=out)
    even = np.hypot(frobenius_bound(hf[:n_p, :n_p]), frobenius_bound(hf[n_p:, n_p:]))
    if even > CHIRAL_EVEN_FLOOR:
        return None
    c = hf[:n_p, n_p:]
    n_m = n - n_p
    zeros = abs(n_p - n_m)
    if likely_empty and not zeros:
        s = np.linalg.svd(c, compute_uv=False)
        if s[-1] > max(ceiling, tol.ker * max(1.0, s[0] + even)) + even:
            return np.zeros((n, 0), dtype=h.dtype), float(s[-1])
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
        return np.zeros((n, 0), dtype=h.dtype), smallest
    # kept: the left singular vectors of the k smallest sigma on the + side,
    # their right ones on the - side, and the null vectors of C* or C
    plus, minus = u[:, r - k :], vh[r - k :].conj().T
    width = plus.shape[1] + minus.shape[1]
    frame = np.zeros((n, width), dtype=h.dtype)
    frame[:n_p, : plus.shape[1]] = plus
    frame[n_p:, plus.shape[1] :] = minus
    kept = np.zeros_like(frame)
    for src, count, d, cols, dst in blocks:
        part = cols @ frame[dst].reshape(count, cols.shape[1], width)
        kept[src] += part.reshape(count * d, width)
    return kept, smallest


def _essential_kernel(
    h: np.ndarray,
    tol: Tolerances,
    ceiling: float = ESSENTIAL_KERNEL_CEILING,
    rep: SymmetryRep | LocalSymmetryRep | None = None,
    likely_empty: bool = False,
) -> np.ndarray:
    """Eigenvectors of a Hermitian matrix converging to its half-space kernel.

    With a ``rep`` whose ``gamma`` anticommutes with ``h``, the chiral route
    (:func:`_chiral_cluster`, see :func:`_gamma_runs`); else, or where it
    declines, the gap certificate and one ``eigh``."""
    runs = None if rep is None else _gamma_runs(rep, len(h), likely_empty)
    if runs is not None:
        found = _chiral_cluster(h, runs, tol, ceiling, likely_empty=likely_empty)
        if found is not None:
            return found[0]
    if _gap_certified(h, tol, ceiling):
        return np.zeros((h.shape[0], 0), dtype=h.dtype)
    vals, vecs = np.linalg.eigh(h)
    return vecs[:, _kernel_cluster(vals, tol, ceiling)]


def near_spectrum(
    m: np.ndarray,
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
    ``+-anchor``.  At anchor +-1 with a ``rep`` that has ``gamma``, the
    chiral route reads the ``s`` off the half-size off-diagonal block
    (:func:`_chiral_cluster`); otherwise, or where it declines, one ``eigh``.
    Then :func:`_eigenpairs_on` the kept columns.
    """
    h = imaginary_part(m if anchor == 1 else np.conj(anchor) * m)
    runs = _gamma_runs(rep, len(m)) if rep is not None and anchor in (1, -1) else None
    found = None if runs is None else _chiral_cluster(h, runs, tol, ceiling, radius)
    if found is None:
        s, vecs = np.linalg.eigh(h)
        if radius is None:
            keep = _kernel_cluster(s, tol, ceiling)
        else:
            keep = np.abs(s) <= _chord_reach(radius)
        found = vecs[:, keep], float(np.min(np.abs(s), initial=np.inf))
    basis, smallest = found
    return _eigenpairs_on(m, basis, tol), smallest


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
    m: np.ndarray,
    tol: Tolerances,
    ceiling: float = ESSENTIAL_KERNEL_CEILING,
    rep: SymmetryRep | LocalSymmetryRep | None = None,
    likely_empty: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Bases of the -1 and +1 eigenspaces: the eigenpairs (:func:`_eigenpairs_on`)
    on the :func:`_essential_kernel` of ``Im W``, split by ``Re lambda``."""
    basis = _essential_kernel(imaginary_part(m), tol, ceiling, rep, likely_empty)
    if not basis.shape[1]:
        return (np.zeros((m.shape[0], 0), dtype=complex),) * 2
    near = _eigenpairs_on(m, basis, tol)
    minus = near.values.real < 0
    return near.vectors[:, minus], near.vectors[:, ~minus]


def _matrix_rep(
    w, rep: SymmetryRep | LocalSymmetryRep | None
) -> tuple[np.ndarray, SymmetryRep | LocalSymmetryRep]:
    """The matrix of ``w`` and its rep: ``rep``, else the cell-local one of ``w``."""
    if isinstance(w, LatticeOperator):
        m = w.matrix
        r = rep if rep is not None else w.local_rep
    else:
        m = np.asarray(w, dtype=complex)
        r = rep
    if r is None:
        raise NotAdmissible("no symmetry representation supplied or attached")
    return m, r


def _has_proxy_ends(w) -> bool:
    """Whether ``w`` is a piece with proxy ends, where boundary modes are likely."""
    return isinstance(w, LatticeOperator) and bool(w.cells.proxy_ends)


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
    w,
    rep: SymmetryRep | LocalSymmetryRep | None = None,
    ceiling: float = ESSENTIAL_KERNEL_CEILING,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[IndexValue, IndexValue]:
    """Symmetry indices of the -1 and +1 eigenspaces of a unitary walk.

    Returns ``(si_minus, si_plus)`` of the cluster of ``Im W`` under
    ``ceiling`` (see :func:`_pm_eigenspaces`).  Cross-checked against the
    closed forms available per class: ``si_pm = tr(gamma (1 +- W))/2`` for
    the unitary chiral classes (``gamma`` being cell-local, ``tr(gamma W)``
    reads only the diagonal cell blocks of ``W``) and the determinant parity
    ``det W = (-1)^{si_minus}`` in class D, both within ``tol.idx``.
    """
    m, r = _matrix_rep(w, rep)
    check_unitary(w, tol)
    check_admissible(w, r, tol=tol)
    minus, plus = _pm_eigenspaces(m, tol, ceiling, r, not _has_proxy_ends(w))
    si_minus = _restricted_index(r, minus, tol)
    si_plus = _restricted_index(r, plus, tol)
    if r.cls in CHIRAL_UNITARY:
        runs = r.runs()
        trace_g = trace_runs(runs, "gamma")
        trace_gw = trace_runs(runs, "gamma", m)
        for sign, got in ((-1.0, si_minus), (+1.0, si_plus)):
            t = (trace_g + sign * trace_gw) / 2
            if abs(t - int(got)) > tol.idx:
                raise NonIntegerTrace(
                    f"eigenspace index {int(got)} disagrees with "
                    f"tr(gamma(1{sign:+.0f}W))/2 = {t:.6g}"
                )
    elif r.cls is SymmetryClass.D:
        det = complex(np.linalg.det(m))
        if abs(det - (-1.0) ** int(si_minus)) > tol.idx:
            raise NonIntegerTrace(
                f"det W = {det:.6g} disagrees with parity of si_minus = {int(si_minus)}"
            )
    return si_minus, si_plus


def si_total(
    w,
    rep: SymmetryRep | LocalSymmetryRep | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> IndexValue:
    """Symmetry index of an essentially unitary operator.

    The index of the representation restricted to the kernel of the imaginary
    part.  For a ``LatticeOperator`` with proxy ends, kernel modes living in
    the proxy windows are truncation artifacts and are excluded; a plain
    matrix has no proxy ends, so every kernel mode counts.

    The kernel is detected by the essential-gap rule (see the module
    docstring), so boundary modes whose tails are clipped by a finite
    truncation are still counted.
    """
    m, r = _matrix_rep(w, rep)
    check_admissible(w, r, tol=tol)
    open_ends = _has_proxy_ends(w)
    ker = _essential_kernel(imaginary_part(m), tol, rep=r, likely_empty=not open_ends)
    if open_ends and ker.shape[1]:
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
    if not isinstance(w, LatticeOperator):
        raise IncompatibleCells("half-space indices need a cell-structured operator")
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
    if not isinstance(w, LatticeOperator) or w.cells.topology != "line":
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
    w, rep: SymmetryRep | LocalSymmetryRep | None = None, tol: Tolerances = DEFAULT_TOL
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
    m, r = _matrix_rep(w, rep)
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
    w,
    w_prime,
    rep: SymmetryRep | LocalSymmetryRep | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> IndexValue:
    """Index of a gentle perturbation ``W -> W'``.

    The index of the companion (twiddle) representation on the -1-eigenspace
    of ``V = W' W*``; zero exactly when the perturbation can be contracted
    back to the identity through admissible unitaries.
    """
    m, r = _matrix_rep(w, rep)
    mp, _ = _matrix_rep(w_prime, rep if rep is not None else r)
    check_unitary(w_prime, tol)
    check_admissible(w_prime, r, tol=tol)
    trep = twiddle_rep(w, r, tol)
    v = mp @ m.conj().T
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
    w,
    w_prime,
    rep: SymmetryRep | LocalSymmetryRep | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> PerturbationReport:
    """Check that the relative index matches the change of si_pm.

    The relative index of ``W -> W'`` equals ``si_minus(W') - si_minus(W)``
    and ``-(si_plus(W') - si_plus(W))``, as exact group identities.
    """
    _, r = _matrix_rep(w, rep)
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
    check_admissible(k, trep, kind="hamiltonian", tol=tol)
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

    m, r = _matrix_rep(joined, None)
    check_unitary(joined, tol)
    check_admissible(joined, tol=tol)
    basis = np.hstack(_pm_eigenspaces(m, tol, rep=r))
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
    if not isinstance(w, LatticeOperator) or w.cells.topology != "line":
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
        pm = _pm_eigenspaces(piece.matrix, tol, rep=piece.local_rep)
        for name, basis in zip(("minus", "plus"), pm):
            basis = _drop_window(basis, piece.cells, w.band, f"{side} {name}")
            entries[f"si_{name}_{side}"] = _restricted_index(piece.local_rep, basis, tol)
    return IndexMatrix(**entries)
