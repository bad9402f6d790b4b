"""Homogeneous coordinates, affine charts, and the open stratum Z_lambda.

A coordinate matrix is an m x N full-rank complex matrix whose columns are
grouped into r-wide blocks according to a partition: block j holds the
columns of the j-th group, sub-indexed by the truncation degree q.  The
weight-2 subdiagram minors decide membership in the stratum where the
orbit normal forms exist.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import GroupElement, _validate_partition
from .errors import BadIndexSet, NotInZLambda, ShapeMismatch, SingularFrame
from .linalg import as_matrix, det, det_batch, hadamard_bound

RANK_RTOL = 1e-10
MINOR_RTOL = 1e-10
# the smallest normal double, the scale of an all-zero matrix
_TINY = np.finfo(np.float64).tiny


def _checked_entries(entries, lam: tuple, r: int, ndim: int = 2) -> np.ndarray:
    """The entries of one coordinate matrix (ndim 2) or of a stack of them
    (ndim 3) as a complex (K, m, N) array, after the one check they all
    pass: finite entries, N = |lam| r columns, m <= N, and full row rank,
    s_min > RANK_RTOL s_max, taken across the stack (``_rank_deficient``).
    The first matrix of the stack that fails raises what it raises alone."""
    e = np.asarray(entries, dtype=np.complex128)
    if e.ndim != ndim:
        raise ShapeMismatch(f"expected a {ndim}-d array, got shape {e.shape}")
    all_finite = np.isfinite(e).all()
    if ndim == 2:
        e = e[None]
    # the matrices before the first one with a non-finite entry
    finite = e if all_finite else e[: np.isfinite(e).all(axis=(1, 2)).argmin()]
    if len(finite):
        n = sum(lam)
        if e.shape[2] != n * r:
            raise ShapeMismatch(f"expected {n * r} columns for partition {lam} at r={r}")
        if e.shape[1] > e.shape[2]:
            raise ShapeMismatch("coordinate matrix must have rank equal to row count")
        if any(_rank_deficient(finite)):
            raise ShapeMismatch("coordinate matrix is rank deficient")
    if len(finite) < len(e):
        raise ValueError("non-finite matrix entries")
    return e


def _rank_deficient(e: np.ndarray) -> list:
    """Whether s_min <= RANK_RTOL s_max, per matrix of a finite (K, m, N)
    stack with m <= N, as a list. Above m = 2 by one batched SVD. At
    m = 2, the rows of every r = 1 point, in closed form: by Cauchy-Binet
    s_min s_max = sqrt(P), P the sum of |2 x 2 minors|^2, and the squared
    Frobenius norm F^2 = s_min^2 + s_max^2 stands in for s_max^2. The two
    agree to rounding wherever s_min <= RANK_RTOL s_max can hold: the
    decision sqrt(P) <= RANK_RTOL F^2 moves by a relative 4 RANK_RTOL^2
    only. Each matrix is first divided by its largest |entry|, so that no
    square overflows or underflows; an all-zero matrix, divided by the
    smallest normal number instead, is deficient."""
    if e.shape[1] != 2:
        s = np.linalg.svd(e, compute_uv=False)
        return [row[-1] <= RANK_RTOL * row[0] for row in s.tolist()]
    e = e / np.abs(e).max(axis=(1, 2), keepdims=True, initial=_TINY)
    outer = e[:, 0, :, None] * e[:, 1, None, :]
    # 2P, each minor a_i b_j - a_j b_i counted twice, and F^2, as sums of
    # squares of real and imaginary parts (float views)
    p = np.square((outer - outer.swapaxes(1, 2)).view(np.float64)).sum(axis=(1, 2))
    f = np.square(e.view(np.float64)).sum(axis=(1, 2))
    return (p <= (2.0 * RANK_RTOL * RANK_RTOL) * np.square(f)).tolist()


@dataclass(frozen=True)
class CoordMatrix:
    lam: tuple
    r: int
    entries: np.ndarray

    def __post_init__(self):
        lam = _validate_partition(self.lam)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "entries", _checked_entries(self.entries, lam, self.r)[0])

    @classmethod
    def stack(cls, lam, r: int, entries) -> list:
        """One coordinate matrix per row of a (K, m, N) entries array,
        checked in one pass (``_checked_entries``); each holds a view of its
        row."""
        lam = _validate_partition(lam)
        out = []
        for e in _checked_entries(entries, lam, r, ndim=3):
            # the fields of a frozen instance, set as __post_init__ sets them
            z = object.__new__(cls)
            z.__dict__.update(lam=lam, r=r, entries=e)
            out.append(z)
        return out

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def N(self) -> int:
        return self.entries.shape[1]

    @property
    def n(self) -> int:
        return sum(self.lam)

    @property
    def ell(self) -> int:
        return len(self.lam)

    def _block_start(self, j: int) -> int:
        return self.r * sum(self.lam[:j])

    def block(self, j: int, q: int) -> np.ndarray:
        """m x r column block z_q^{(j)} (0-based block j, degree q)."""
        if not (0 <= j < self.ell) or not (0 <= q < self.lam[j]):
            raise BadIndexSet(f"no block ({j}, {q}) in partition {self.lam}")
        start = self._block_start(j) + q * self.r
        return self.entries[:, start : start + self.r]

    def with_entries(self, entries) -> "CoordMatrix":
        return CoordMatrix(self.lam, self.r, entries)


@dataclass(frozen=True)
class ChartPoint:
    """Affine coordinates u on the chart where the leading r x r frame is 1."""

    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", as_matrix(self.u))

    @property
    def r(self) -> int:
        return self.u.shape[0]

    @property
    def m(self) -> int:
        return self.u.shape[0] + self.u.shape[1]

    @property
    def ubar(self) -> np.ndarray:
        return np.concatenate([np.eye(self.r, dtype=np.complex128), self.u], axis=1)


def plucker(t, J) -> complex:
    """Minor det(t_{j_1}, ..., t_{j_r}) for a strictly increasing 1-based J."""
    t = as_matrix(t)
    r, m = t.shape
    J = tuple(int(j) for j in J)
    if len(J) != r:
        raise BadIndexSet(f"index set must have size {r}")
    if any(j < 1 or j > m for j in J) or any(
        J[i] >= J[i + 1] for i in range(len(J) - 1)
    ):
        raise BadIndexSet("index set must be strictly increasing within [1, m]")
    cols = [j - 1 for j in J]
    return det(t[:, cols])


def tau_factor(t_prime, m: int) -> complex:
    """Density factor (det t')^m on the standard chart."""
    t_prime = as_matrix(t_prime)
    d = det(t_prime)
    if abs(d) <= 1e-12 * max(hadamard_bound(t_prime), 1e-300):
        raise SingularFrame("frame determinant vanishes")
    return complex(d**m)


@dataclass(frozen=True)
class SubdiagramMu:
    """Weight-2 subdiagram: two distinct blocks or one block at depth two."""

    mu: tuple
    kind: str  # "two-distinct-blocks" | "one-block-depth-two"

    def columns(self):
        """Block/degree pairs whose column blocks form the minor."""
        if self.kind == "two-distinct-blocks":
            i, j = [k for k, v in enumerate(self.mu) if v == 1]
            return (i, 0), (j, 0)
        (i,) = [k for k, v in enumerate(self.mu) if v == 2]
        return (i, 0), (i, 1)


def subdiagrams(lam) -> list:
    """All weight-2 subdiagrams of the partition."""
    lam = _validate_partition(lam)
    ell = len(lam)
    out = []
    for i in range(ell):
        for j in range(i + 1, ell):
            mu = [0] * ell
            mu[i] = mu[j] = 1
            out.append(SubdiagramMu(tuple(mu), "two-distinct-blocks"))
    for i in range(ell):
        if lam[i] >= 2:
            mu = [0] * ell
            mu[i] = 2
            out.append(SubdiagramMu(tuple(mu), "one-block-depth-two"))
    return out


@lru_cache(maxsize=64)
def _minor_columns(lam: tuple, r: int):
    """The subdiagrams of a partition, and per subdiagram the 2r column
    indices of its minor."""
    subs = tuple(subdiagrams(lam))
    starts = np.cumsum((0,) + lam[:-1]) * r
    cols = [
        [starts[i] + qi * r + c for c in range(r)] + [starts[j] + qj * r + c for c in range(r)]
        for (i, qi), (j, qj) in (mu.columns() for mu in subs)
    ]
    cols = np.array(cols, dtype=np.intp).reshape(len(subs), 2 * r)
    # every caller gets this array: keep it read-only
    cols.setflags(write=False)
    return subs, cols


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    failing: tuple

    def __bool__(self) -> bool:
        return self.member


def _vanishing_minors(lam: tuple, r: int, entries: np.ndarray, rtol: float):
    """The weight-2 subdiagrams of lam, and whether the minor of each
    vanishes: |det| at most rtol times its Hadamard bound, so the test is
    scale-free. Takes one 2r x nr coordinate matrix, or a (K, 2r, nr)
    stack of them whose minors are one (K, k, 2r, 2r) stack; the flags are
    a (k,) or (K, k) bool array, in subdiagram order."""
    if entries.shape[-2] != 2 * r:
        raise ShapeMismatch("subdiagram minors need m = 2r")
    subs, cols = _minor_columns(lam, r)
    minors = entries[..., cols].swapaxes(-3, -2)
    bounds = hadamard_bound(minors)
    return subs, (bounds == 0.0) | (np.abs(det_batch(minors)) <= rtol * bounds)


def z_lambda_member(z: CoordMatrix, rtol: float = MINOR_RTOL) -> MembershipResult:
    """Test the weight-2 subdiagram minors of a 2r x nr coordinate matrix
    against their Hadamard bounds."""
    subs, vanishing = _vanishing_minors(z.lam, z.r, z.entries, rtol)
    failing = tuple(mu for mu, v in zip(subs, vanishing.tolist()) if v)
    return MembershipResult(not failing, failing)


def member_mask(lam: tuple, r: int, entries) -> np.ndarray:
    """Whether each matrix of a (K, 2r, nr) entries stack for partition lam
    lies in Z_lambda, as a (K,) bool array, by one test of all their
    minors; the test of ``z_lambda_member``, so ``require_member`` raises
    for exactly the matrices where the mask is False."""
    return ~_vanishing_minors(lam, r, entries, MINOR_RTOL)[1].any(axis=1)


def require_member(z: CoordMatrix):
    res = z_lambda_member(z)
    if not res.member:
        raise NotInZLambda(
            f"weight-2 minors vanish: {[m.mu for m in res.failing]}",
            witnesses=list(res.failing),
        )


def general_Z_member(z: CoordMatrix, rtol: float = MINOR_RTOL) -> bool:
    """Every leading block z_0^{(k)} has full column rank r."""
    for j in range(z.ell):
        s = np.linalg.svd(z.block(j, 0), compute_uv=False)
        if s[0] == 0.0 or s[-1] <= rtol * s[0]:
            return False
    return True


def apply_group(z: CoordMatrix, g=None, h: GroupElement | None = None) -> CoordMatrix:
    """Left GL(m) action and right block-group action, g z h.

    The right action mixes columns within a block by the Toeplitz rule of
    ``block_action``.
    """
    e = z.entries
    if g is not None:
        e = as_matrix(g) @ e
    if h is not None:
        if h.lam != z.lam:
            raise ShapeMismatch("group element blocks do not match the partition")
        cols, start = [], 0
        for nk, hb in zip(z.lam, h.blocks):
            stop = start + nk * z.r
            cols.append(block_action(e[:, start:stop], hb.coeffs, z.r))
            start = stop
        e = np.concatenate(cols, axis=1)
    return z.with_entries(e)


def block_action(cols: np.ndarray, coeffs, r: int) -> np.ndarray:
    """The columns (z_0, ..., z_{p-1}) of one block, an m x pr array, after
    the right action of (h_0, ..., h_{p-1}): the Toeplitz rule
    new z_q = sum_{s + k = q} z_s h_k, summed in the order s = 0, ..., q."""
    out = []
    for q in range(len(coeffs)):
        acc = np.zeros((cols.shape[0], r), dtype=np.complex128)
        for s in range(q + 1):
            acc += cols[:, s * r : (s + 1) * r] @ coeffs[q - s]
        out.append(acc)
    return np.concatenate(out, axis=1)
