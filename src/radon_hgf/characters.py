"""Characters of block-diagonal Jordan-group elements.

A partition (n_1, ..., n_l) of n fixes the block structure: block k is an
element of the Jordan group of truncation order n_k over Mat(r).  The
character of such an element is

    prod_k (det h_0^{(k)})^{alpha_0^{(k)}}
           * exp( sum_{1<=i<n_k} alpha_i^{(k)} Tr theta_i( h0^{-1} h ) )

with principal-branch complex powers.  The nonconfluent case is the
all-ones partition, where every block is a bare invertible matrix.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BranchCutWarning, InvalidWeight, ShapeMismatch, SingularBlock
from .jordan import TruncPoly, theta
from .linalg import as_matrix, det, hadamard_bound, inverse
from .ncpoly import theta_symbolic

INT_DISTANCE_TOL = 1e-9
SUM_TOL = 1e-12
_DET_RTOL = 1e-12


def _log_batch(z, out=None):
    """Principal log z over an array, under the one branch policy: a zero
    base raises, a base on the negative real axis warns. It is log|z| +
    i atan2(Im z, Re z), with the cut and the signed zeros of numpy's
    complex log (Kahan 1987) at a fraction of its cost. The logs go to
    ``out`` when given, a complex array of z's shape in any memory order."""
    # both cases have a base with non-positive real part; one min() clears
    # the common batch
    edge = z.real.min(initial=math.inf) <= 0.0
    if edge and not z.all():
        raise SingularBlock("zero base in complex power")
    if out is None:
        out = np.empty(z.shape, dtype=np.complex128)
    np.log(np.abs(z, out=out.real), out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    # on the axis, |Im z| <= 1e-14 |Re z|, the argument is within atan(1e-14) of +-pi
    if edge and np.abs(out.imag).max() >= math.pi - 1e-14:
        warnings.warn(
            "determinant on the negative real axis: principal branch is "
            "discontinuous here",
            BranchCutWarning,
            stacklevel=3,
        )
    return out


def cpow(z: complex, a: complex) -> complex:
    """Principal-branch z**a under the policy of ``_log_batch``."""
    return np.exp(a * _log_batch(np.array([complex(z)]))[0])


def _validate_partition(lam):
    lam = tuple(int(n) for n in lam)
    if not lam or any(n < 1 for n in lam):
        raise InvalidWeight("partition parts must be positive")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise InvalidWeight("partition must be nonincreasing")
    return lam


@dataclass(frozen=True)
class PartitionWeight:
    """Partition plus the per-block weight arrays alpha^{(k)}.

    strict=True enforces: non-integral leading weights, nonzero top
    coefficient on blocks of length >= 2.  The trace-sum condition
    sum_k alpha_0^{(k)} = -m holds in both modes.
    """

    lam: tuple
    alpha: tuple
    m: int
    r: int
    strict: bool = True

    def __post_init__(self):
        lam = _validate_partition(self.lam)
        object.__setattr__(self, "lam", lam)
        alpha = tuple(tuple(complex(a) for a in blk) for blk in self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if len(alpha) != len(lam):
            raise InvalidWeight("one weight array per partition block required")
        for nk, blk in zip(lam, alpha):
            if len(blk) != nk:
                raise InvalidWeight("weight array length must equal block size")
        lead_sum = sum(blk[0] for blk in alpha)
        if abs(lead_sum - (-self.m)) > SUM_TOL * max(1.0, abs(self.m)):
            raise InvalidWeight(
                f"leading weights must sum to -m: got {lead_sum}, m={self.m}"
            )
        if self.strict:
            for k, (nk, blk) in enumerate(zip(lam, alpha)):
                dist = abs(blk[0] - round(blk[0].real))
                if blk[0].imag == 0 and dist <= INT_DISTANCE_TOL:
                    raise InvalidWeight(
                        f"leading weight of block {k + 1} is an integer; "
                        "use strict=False for pinned weights"
                    )
                if nk >= 2 and blk[nk - 1] == 0:
                    raise InvalidWeight(
                        f"top weight of block {k + 1} vanishes; "
                        "use strict=False for pinned weights"
                    )

    @property
    def n(self) -> int:
        return sum(self.lam)

    @property
    def ell(self) -> int:
        return len(self.lam)

    @property
    def N(self) -> int:
        return self.n * self.r

    def flat_alpha(self) -> tuple:
        return tuple(a for blk in self.alpha for a in blk)

    @staticmethod
    def from_flat(lam, flat, m, r, strict=True) -> "PartitionWeight":
        lam = _validate_partition(lam)
        flat = list(flat)
        if len(flat) != sum(lam):
            raise InvalidWeight("flat weight length must equal n")
        blocks, pos = [], 0
        for nk in lam:
            blocks.append(tuple(flat[pos : pos + nk]))
            pos += nk
        return PartitionWeight(lam, tuple(blocks), m, r, strict)


@dataclass(frozen=True)
class GroupElement:
    """Block tuple (one TruncPoly per partition block)."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @property
    def lam(self) -> tuple:
        return tuple(b.p for b in self.blocks)

    @property
    def r(self) -> int:
        return self.blocks[0].r

    @staticmethod
    def identity(lam, r: int) -> "GroupElement":
        return GroupElement(tuple(TruncPoly.unit(r, nk) for nk in lam))


def underline(h: TruncPoly) -> TruncPoly:
    """Unipotent part h0^{-1} h = (I, h0^{-1} h_1, ..., h0^{-1} h_{p-1})."""
    h0_inv = inverse(h.coeffs[0])
    return TruncPoly((np.eye(h.r, dtype=np.complex128),)
                     + tuple(np.dot(h0_inv, c) for c in h.coeffs[1:]))


def chi_nonconfluent(hs, alpha) -> complex:
    """prod_i (det h_i)^{alpha_i} over a list of invertible matrices."""
    hs = [as_matrix(h) for h in hs]
    if len(hs) != len(alpha):
        raise ShapeMismatch("one exponent per matrix required")
    acc = 1.0 + 0.0j
    for h, a in zip(hs, alpha):
        d = det(h)
        if abs(d) <= _DET_RTOL * max(hadamard_bound(h), 1e-300):
            raise SingularBlock("singular factor in nonconfluent character")
        acc *= cpow(d, a)
    return acc


def chi_jordan(h: TruncPoly, alpha) -> complex:
    """(det h0)^{alpha_0} exp(sum alpha_i Tr theta_i(h0^{-1} h))."""
    alpha = tuple(complex(a) for a in alpha)
    if len(alpha) != h.p:
        raise ShapeMismatch("weight length must equal truncation order")
    h0 = h.coeffs[0]
    d = det(h0)
    if abs(d) <= _DET_RTOL * max(hadamard_bound(h0), 1e-300):
        raise SingularBlock("singular constant coefficient")
    acc = cpow(d, alpha[0])
    if h.p > 1:
        th = theta(underline(h)).numeric
        expo = sum(a * np.trace(t) for a, t in zip(alpha[1:], th))
        acc *= np.exp(expo)
    return complex(acc)


def chi_lambda(h: GroupElement, pw: PartitionWeight) -> complex:
    """Product of per-block Jordan characters."""
    if h.lam != pw.lam:
        raise ShapeMismatch(f"block shape {h.lam} does not match partition {pw.lam}")
    if h.r != pw.r:
        raise ShapeMismatch("matrix size mismatch between element and weight")
    acc = 1.0 + 0.0j
    for blk, a in zip(h.blocks, pw.alpha):
        acc *= chi_jordan(blk, a)
    return complex(acc)


@lru_cache(maxsize=32)
def _theta_linear_coeff(p: int, k: int) -> complex:
    # coefficient of the single-letter word (k,) in the symbolic theta_k;
    # extracted from the graded log expansion rather than assumed
    if p < 2:
        return 0.0
    sym = theta_symbolic(p).symbolic[k - 1]
    return complex(sym.terms.get((k,), 0))


@dataclass(frozen=True)
class LieDirection:
    """Tangent direction at the identity of the block group: one array of
    coefficient matrices (E_0, ..., E_{n_k - 1}) per block."""

    blocks: tuple = field(default_factory=tuple)

    @property
    def lam(self) -> tuple:
        return tuple(len(b) for b in self.blocks)


def dchi_lambda(direction: LieDirection, pw: PartitionWeight) -> complex:
    """Differential of the character at the identity.

    The det part contributes alpha_0 Tr E_0; each theta_k is linear in
    h_k at the identity with the coefficient read off the symbolic
    expansion, contributing alpha_k Tr E_k.
    """
    if direction.lam != pw.lam:
        raise ShapeMismatch("direction blocks do not match the partition")
    acc = 0.0 + 0.0j
    for (nk, alpha_blk), eblk in zip(zip(pw.lam, pw.alpha), direction.blocks):
        acc += alpha_blk[0] * np.trace(eblk[0])
        for k in range(1, nk):
            acc += alpha_blk[k] * _theta_linear_coeff(nk, k) * np.trace(eblk[k])
    return complex(acc)
