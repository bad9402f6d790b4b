"""Arithmetic in the truncated matrix polynomial ring Mat(r)[w]/(w^p).

Group elements of the block-Toeplitz Jordan group are represented by
their coefficient list h = (h_0, ..., h_{p-1}); the shift structure never
needs to be materialized because degrees add under truncated
multiplication.

Two coefficient backends share one code path:

* float: numpy complex128 matrices (integration, evaluation),
* exact: numpy object matrices holding ``fractions.Fraction`` entries
  (round-trip identities, symbolic cross-checks).

The unipotent log/exp are finite sums (the argument is nilpotent), so in
exact mode they are identities on the nose.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotAUnit, NotNilpotent, NotUnipotent, ShapeMismatch
from .linalg import inverse

UNIPOTENT_RTOL = 1e-9


def _is_exact(mat) -> bool:
    return mat.dtype == object


def exact_eye(r: int) -> np.ndarray:
    m = np.full((r, r), Fraction(0), dtype=object)
    for i in range(r):
        m[i, i] = Fraction(1)
    return m


def exact_zeros(r: int) -> np.ndarray:
    return np.full((r, r), Fraction(0), dtype=object)


def exact_inverse(a: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse over Fractions."""
    r = a.shape[0]
    aug = np.concatenate([a.copy(), exact_eye(r)], axis=1)
    for col in range(r):
        piv = None
        for row in range(col, r):
            if aug[row, col] != 0:
                piv = row
                break
        if piv is None:
            raise NotAUnit("exact matrix is singular")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] * (Fraction(1) / aug[col, col])
        for row in range(r):
            if row != col and aug[row, col] != 0:
                aug[row] = aug[row] - aug[row, col] * aug[col]
    return aug[:, r:]


def _mm(a, b):
    # np.matmul rejects object dtype; np.dot handles both backends
    return np.dot(a, b)


@dataclass(frozen=True)
class TruncPoly:
    """Element sum_i coeffs[i] w^i of Mat(r)[w]/(w^p)."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ShapeMismatch("at least one coefficient required")
        r = self.coeffs[0].shape[0]
        for c in self.coeffs:
            if c.shape != (r, r):
                raise ShapeMismatch("all coefficients must be square of equal size")

    @property
    def r(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def p(self) -> int:
        return len(self.coeffs)

    @property
    def exact(self) -> bool:
        return _is_exact(self.coeffs[0])

    @staticmethod
    def from_list(coeffs) -> "TruncPoly":
        mats = []
        for c in coeffs:
            arr = np.asarray(c)
            if arr.dtype != object:
                arr = arr.astype(np.complex128)
            mats.append(arr)
        return TruncPoly(tuple(mats))

    @staticmethod
    def unit(r: int, p: int, exact: bool = False) -> "TruncPoly":
        if exact:
            return TruncPoly((exact_eye(r),) + tuple(exact_zeros(r) for _ in range(p - 1)))
        z = np.zeros((r, r), dtype=np.complex128)
        return TruncPoly((np.eye(r, dtype=np.complex128),) + tuple(z.copy() for _ in range(p - 1)))

    @staticmethod
    def zero(r: int, p: int, exact: bool = False) -> "TruncPoly":
        if exact:
            return TruncPoly(tuple(exact_zeros(r) for _ in range(p)))
        return TruncPoly(tuple(np.zeros((r, r), dtype=np.complex128) for _ in range(p)))

    def _eye(self):
        return exact_eye(self.r) if self.exact else np.eye(self.r, dtype=np.complex128)

    def scalar_norm(self) -> float:
        if self.exact:
            return max(
                (abs(float(v)) for c in self.coeffs for v in c.flat), default=0.0
            )
        return max((float(np.abs(c).max()) for c in self.coeffs), default=0.0)

    def __add__(self, other: "TruncPoly") -> "TruncPoly":
        self._check_compatible(other)
        return TruncPoly(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncPoly") -> "TruncPoly":
        self._check_compatible(other)
        return TruncPoly(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c) -> "TruncPoly":
        return TruncPoly(tuple(c * m for m in self.coeffs))

    def _check_compatible(self, other: "TruncPoly"):
        if self.r != other.r or self.p != other.p:
            raise ShapeMismatch(
                f"(r, p) mismatch: ({self.r}, {self.p}) vs ({other.r}, {other.p})"
            )


def trunc_mul(a: TruncPoly, b: TruncPoly) -> TruncPoly:
    """Truncated product: c_k = sum_{i+j=k, k<p} a_i b_j (order preserved)."""
    a._check_compatible(b)
    p = a.p
    out = []
    for k in range(p):
        acc = None
        for i in range(k + 1):
            term = _mm(a.coeffs[i], b.coeffs[k - i])
            acc = term if acc is None else acc + term
        out.append(acc)
    return TruncPoly(tuple(out))


def _nilpotent_series(x: TruncPoly, coeffs) -> TruncPoly:
    """sum_k coeffs[k] s^k over k < p, where s is x with its constant
    coefficient set to zero. s is nilpotent, so the series terminates at
    degree p - 1; its terms are added in order of k, so exact coefficients
    give an exact sum."""
    s = TruncPoly((x.coeffs[0] * 0,) + tuple(x.coeffs[1:]))
    power = TruncPoly.unit(x.r, x.p, x.exact)
    acc = power.scale(coeffs[0])
    for c in coeffs[1:]:
        power = trunc_mul(power, s)
        acc = acc + power.scale(c)
    return acc


def trunc_inverse(a: TruncPoly) -> TruncPoly:
    """Two-sided inverse of a unit (a_0 invertible)."""
    if a.exact:
        a0_inv = exact_inverse(a.coeffs[0])
    else:
        try:
            a0_inv = inverse(a.coeffs[0])
        except Exception as exc:
            raise NotAUnit("constant coefficient is singular") from exc
    # a = a0 (1 + n) with n strictly positive degree; invert by the
    # terminating geometric series, then peel off a0.
    n = TruncPoly((a0_inv,) + tuple(_mm(a0_inv, c) for c in a.coeffs[1:]))
    acc = _nilpotent_series(n, [(-1) ** k for k in range(a.p)])
    return TruncPoly(tuple(_mm(c, a0_inv) for c in acc.coeffs))


def _assert_unipotent(h: TruncPoly):
    eye = h._eye()
    if h.exact:
        if not np.array_equal(h.coeffs[0], eye):
            raise NotUnipotent("constant coefficient is not the identity")
    else:
        scale = max(1.0, h.scalar_norm())
        if np.abs(h.coeffs[0] - eye).max() > UNIPOTENT_RTOL * scale:
            raise NotUnipotent("constant coefficient is not the identity")


def nilpotent_log(h: TruncPoly) -> TruncPoly:
    """log of a unipotent element; the series terminates at degree p-1."""
    _assert_unipotent(h)
    one = Fraction(1) if h.exact else 1.0
    return _nilpotent_series(h, [0] + [(-one) ** (k + 1) / k for k in range(1, h.p)])


def nilpotent_exp(x: TruncPoly) -> TruncPoly:
    """exp of a nilpotent element (zero constant coefficient); finite sum."""
    if x.exact:
        if np.any(x.coeffs[0] != Fraction(0)):
            raise NotNilpotent("constant coefficient is not zero")
    else:
        scale = max(1.0, x.scalar_norm())
        if np.abs(x.coeffs[0]).max() > UNIPOTENT_RTOL * scale:
            raise NotNilpotent("constant coefficient is not zero")
    coeffs = [Fraction(1) if x.exact else 1.0]
    for k in range(1, x.p):
        coeffs.append(coeffs[-1] / k)
    return _nilpotent_series(x, coeffs)


def ring_exp(x: TruncPoly) -> TruncPoly:
    """exp for a general (not necessarily nilpotent) float element.

    Scaling-and-squaring in the ring; used for one-parameter subgroups of
    the full Jordan group, where the constant coefficient may be nonzero.
    """
    if x.exact:
        raise NotImplementedError("ring_exp is float-only")
    norm = x.scalar_norm()
    s = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    y = x.scale(0.5**s)
    acc = TruncPoly.unit(x.r, x.p)
    power = TruncPoly.unit(x.r, x.p)
    fact = 1.0
    for k in range(1, 40):
        power = trunc_mul(power, y)
        fact /= k
        term = power.scale(fact)
        acc = acc + term
        if term.scalar_norm() < 1e-18 * max(1.0, acc.scalar_norm()):
            break
    for _ in range(s):
        acc = trunc_mul(acc, acc)
    return acc


@dataclass(frozen=True)
class ThetaSet:
    """Graded components theta_1..theta_{p-1} of the unipotent logarithm."""

    p: int
    numeric: tuple = None
    symbolic: tuple = None


def theta(h: TruncPoly) -> ThetaSet:
    """Numeric theta_k(h): degree-k coefficient of nilpotent_log(h)."""
    lg = nilpotent_log(h)
    return ThetaSet(p=h.p, numeric=tuple(lg.coeffs[1:]))
