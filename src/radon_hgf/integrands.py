"""Chart integrands and the named Hermitian-integral families.

The chart integrand of a coordinate matrix is the block-group character
of the block images t z of a frame t: a product of determinant powers
(the multivalued part) times the exponential of a trace polynomial (the
confluent part).  ``chart_integrand_batch`` evaluates it over stacked
frames, and ``evaluate_frame`` / ``evaluate_integrand`` are its
single-point calls.  At r = 1 the adaptive quadrature evaluates the
chart integrand through ``integrate.scalar_chart_function``, which works
on the complex points u themselves, not on 1 x 2 frames, over all the
nodes of a round at once.  The named families are the concrete
matrix-integral counterparts of the classical hypergeometric kernels,
and ``family_of_normal_form`` records the exact weight dictionary that
identifies them with the table normal forms.

``FAMILIES`` is the one registry of the named families: per tag, the
batched kernel, the chains it integrates over (the default first), the
endpoint exponents of its weight and, for the unitarily invariant
kernels, the per-eigenvalue remainder.  The domain check, the r = 1
chain pieces, the eigenvalue quadrature, the Monte Carlo densities and
the CLI defaults are all read from it.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .characters import PartitionWeight
from .errors import (
    BranchCutWarning,
    NotHermitian,
    OnBranchLocus,
    OutOfDomain,
    ShapeMismatch,
    SingularBlock,
    UnpinnedAlpha,
    UnsupportedPartition,
)
from .grassmann import ChartPoint, CoordMatrix
from .linalg import as_matrix, det_batch, hermitian_eigen, inv_batch, matmul_batch
from .ncpoly import theta_symbolic

INTERVAL = "interval-0-1"
HALF_LINE = "half-line"
FULL_LINE = "full-line"
ROTATED_RAY = "rotated-ray"

# from the narrowest real domain to the complex chain
CHAIN_KINDS = (INTERVAL, HALF_LINE, FULL_LINE, ROTATED_RAY)


@dataclass(frozen=True)
class IntegrandSpec:
    """u |-> character of (ubar z) on the standard affine chart."""

    pw: PartitionWeight
    z: CoordMatrix

    def __post_init__(self):
        if self.z.lam != self.pw.lam or self.z.r != self.pw.r:
            raise ShapeMismatch("coordinate matrix and weight partition disagree")
        if self.z.m != 2 * self.z.r:
            raise ShapeMismatch("chart integrands are defined for m = 2r")


def evaluate_frame(spec: IntegrandSpec, t) -> complex:
    """Integrand at one r x m frame t: the character of the block images t z."""
    try:
        return complex(chart_integrand_batch(spec, as_matrix(t)[None])[0])
    except SingularBlock as exc:
        raise OnBranchLocus("a block image of the frame is singular") from exc


def evaluate_integrand(spec: IntegrandSpec, point: ChartPoint) -> complex:
    return evaluate_frame(spec, point.ubar)


@dataclass(frozen=True)
class NamedFamily:
    """One of the closed-form matrix-integral kernels.

    ``tag`` names its entry in ``FAMILIES``.  ``dictionary`` records how the
    parameters were derived (so the weight correspondence is visible in
    results), and ``reflect_u`` marks the chain reorientation u -> -u used
    by the cubic family.
    """

    tag: str
    params: dict
    X: np.ndarray | None = None
    xs: tuple = ()
    dictionary: dict = field(default_factory=dict)
    reflect_u: bool = False

    def __post_init__(self):
        if self.tag not in FAMILIES:
            raise UnsupportedPartition(f"unknown family tag {self.tag!r}")


# open eigenvalue range of a Hermitian argument, by the family's widest chain
_DOMAIN_BOUNDS = {INTERVAL: (0.0, 1.0), HALF_LINE: (0.0, math.inf)}


def named_integrand(fam: NamedFamily, u, check_domain: bool = True) -> complex:
    """Pointwise kernel value at an r x r matrix argument."""
    u = as_matrix(u)
    if check_domain:
        lo, hi = _DOMAIN_BOUNDS.get(FAMILIES[fam.tag].domain, (-math.inf, math.inf))
        try:
            eigs, _ = hermitian_eigen(u)
        except NotHermitian:
            pass  # complex chains evaluate off the Hermitian slice
        else:
            if eigs[0] <= lo or eigs[-1] >= hi:
                raise OutOfDomain(f"{fam.tag} needs eigenvalues strictly inside ({lo}, {hi})")
    return complex(named_integrand_batch(fam, u[None])[0])


# ----------------------------------------------------------------------
# batched kernels
# ----------------------------------------------------------------------

def _log_batch(z):
    """Principal log z over an array, with the policy of ``cpow``: a zero
    base raises, a base on the negative real axis warns.

    It is log|z| + i atan2(Im z, Re z), which has the branch cut and the
    signed zeros of numpy's complex log (Kahan 1987) at a fraction of its
    cost."""
    # both cases have a base with non-positive real part; one min() clears
    # the common batch
    if z.real.min() <= 0.0:
        if not z.all():
            raise SingularBlock("zero base in complex power")
        if np.any((z.real < 0) & (np.abs(z.imag) <= 1e-14 * np.abs(z.real))):
            warnings.warn(
                "determinant on the negative real axis: principal branch is "
                "discontinuous here",
                BranchCutWarning,
                stacklevel=3,
            )
    out = np.empty(z.shape, dtype=np.complex128)
    np.log(np.abs(z, out=out.real), out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out


def _pow_batch(z, e):
    """Principal z**e over an array, under the policy of ``_log_batch``."""
    return np.exp(complex(e) * _log_batch(z))


def _logdet_batch(m):
    return _log_batch(det_batch(m))


def _trace_batch(m):
    return np.einsum("bii->b", m)


def _trace_prod(a, b):
    """Tr(a b) over a stack a and a stack or single matrix b, without
    forming the products."""
    return np.einsum("bij,bji->b" if b.ndim == 3 else "bij,ji->b", a, b)


def named_integrand_batch(fam: NamedFamily, u) -> np.ndarray:
    """Kernel values over a stacked (batch, r, r) argument."""
    b, r, _ = u.shape
    eye = np.eye(r, dtype=np.complex128)
    x = fam.X if fam.X is not None else np.zeros((r, r), dtype=np.complex128)
    return FAMILIES[fam.tag].kernel(fam.params, u, r, eye, x, fam.xs)


@lru_cache(maxsize=16)
def _theta_terms(p: int):
    """Symbolic theta term lists (word, float coefficient), built once per p."""
    if p < 2:
        return ()
    sym = theta_symbolic(p).symbolic
    return tuple(
        tuple((w, float(c)) for w, c in th.sorted_terms()) for th in sym
    )


def chart_integrand_batch(spec: IntegrandSpec, t) -> np.ndarray:
    """Integrand over a stacked (batch, r, m) frame t; at t = (1, u) it is the
    chart integrand at u."""
    b, r, _ = t.shape
    z = spec.z
    # the block images t z_q of every block, in one product
    images = matmul_batch(t, z.entries)
    # the determinant powers and the theta traces of every block add up to
    # one exponent
    expo = np.zeros(b, dtype=np.complex128)
    start = 0
    for j, nk in enumerate(z.lam):
        block = images[:, :, start : start + nk * r]
        start += nk * r
        m0 = block[:, :, :r]
        alpha = spec.pw.alpha[j]
        expo += alpha[0] * _logdet_batch(m0)
        if nk > 1:
            # m0^{-1} t z_q for q = 1 .. nk - 1, side by side
            sol = matmul_batch(inv_batch(m0), block[:, :, r:])
            coeffs = [sol[:, :, q * r : (q + 1) * r] for q in range(nk - 1)]
            for k, terms in enumerate(_theta_terms(nk), start=1):
                for word, c in terms:
                    prod = coeffs[word[0] - 1]
                    for letter in word[1:]:
                        prod = matmul_batch(prod, coeffs[letter - 1])
                    expo += (alpha[k] * c) * _trace_batch(prod)
    return np.exp(expo)


# ----------------------------------------------------------------------
# family registry
# ----------------------------------------------------------------------

def _beta_r(p, u, r, eye, x, xs):
    return np.exp((p["a"] - r) * _logdet_batch(u) + (p["b"] - r) * _logdet_batch(eye - u))


def _gamma_r(p, u, r, eye, x, xs):
    return np.exp((p["a"] - r) * _logdet_batch(u) - _trace_batch(u))


def _gaussian_r(p, u, r, eye, x, xs):
    return np.exp(-0.5 * _trace_prod(u, u))


def _beta_type_log(p, u, r, eye):
    """(a - r) log det u + (c - a - r) log det(1 - u)."""
    return (p["a"] - r) * _logdet_batch(u) + (p["c"] - p["a"] - r) * _logdet_batch(eye - u)


def _gauss(p, u, r, eye, x, xs):
    return np.exp(_beta_type_log(p, u, r, eye)
                  - p["b"] * _logdet_batch(eye - matmul_batch(u, x)))


def _kummer(p, u, r, eye, x, xs):
    return np.exp(_trace_prod(u, x) + _beta_type_log(p, u, r, eye))


def _bessel(p, u, r, eye, x, xs):
    # the log first: a singular u raises before it is inverted
    expo = (p["c"] - r) * _logdet_batch(u)
    return np.exp(expo + _trace_prod(u, x) - _trace_batch(inv_batch(u)))


def _hermite_weber(p, u, r, eye, x, xs):
    return np.exp(_trace_prod(u, x) - 0.5 * _trace_prod(u, u)
                  + (-p["c"] - r) * _logdet_batch(u))


def _airy(p, u, r, eye, x, xs):
    return np.exp(_trace_prod(u, x) - np.einsum("bij,bjk,bki->b", u, u, u) / 3.0)


def _lauricella_fd(p, u, r, eye, x, xs):
    expo = _beta_type_log(p, u, r, eye)
    for bj, xj in zip(p["bs"], xs):
        expo -= bj * _logdet_batch(eye - matmul_batch(u, xj))
    return np.exp(expo)


def _beta_type(p, X):
    return p["a"], p["c"] - p["a"]


def _bessel_exponents(p, X):
    # exp(Tr(u X)) decays at the rate of the mean eigenvalue of -X
    return p["c"], 0.0 if X is None else -complex(np.trace(X)) / X.shape[0]


def _no_remainder(p, lam, x, xs):
    return np.ones(lam.shape, dtype=np.complex128)


def _lauricella_phi(p, lam, x, xs):
    acc = np.ones(lam.shape, dtype=np.complex128)
    for bj, xj in zip(p["bs"], xs):
        acc *= _pow_batch(1.0 - lam * xj, -bj)
    return acc


@dataclass(frozen=True)
class Family:
    """Registry entry of one named kernel.

    kernel(params, u, r, eye, X, xs): values over a stacked (batch, r, r) u,
    with X the zero matrix when the family has none. A kernel adds its
    determinant logs (``_logdet_batch``, the policy of ``_log_batch``) and
    trace terms into one exponent and takes one complex exp; a product
    with X is one ``matmul_batch`` against the single X, and a trace of a
    product is taken by einsum without forming the product.

    chains: the chain kinds the family integrates over, the default first.

    exponents(params, X): the exponents e of the weight at the chain ends,
    det(u)^(e0 - r) det(1 - u)^(e1 - r) on the interval and
    det(u)^(e0 - r) exp(-e1 Tr u) on the half line (no e1 when the decay
    is not exponential).

    phi(params, lam, x, xs): for unitarily invariant kernels at scalar
    arguments x, xs, what the kernel leaves per eigenvalue after that
    weight (after exp(-lam^2 / 2) on the full line):
    kernel(diag(lam)) = prod_i weight(lam_i) phi(lam_i).  None when the
    kernel has no positive eigenvalue weight.
    """

    kernel: Callable
    chains: tuple
    exponents: Callable = lambda p, X: ()
    phi: Callable | None = None

    @property
    def domain(self) -> str:
        """The widest chain; a Hermitian argument's eigenvalues lie on it."""
        return max(self.chains, key=CHAIN_KINDS.index)


FAMILIES = {
    "beta_r": Family(_beta_r, (INTERVAL,), lambda p, X: (p["a"], p["b"]), _no_remainder),
    "gamma_r": Family(_gamma_r, (HALF_LINE,), lambda p, X: (p["a"], 1.0), _no_remainder),
    "gaussian_r": Family(_gaussian_r, (FULL_LINE,), phi=_no_remainder),
    "gauss": Family(
        _gauss, (INTERVAL,), _beta_type,
        lambda p, lam, x, xs: _pow_batch(1.0 - lam * x, -p["b"]),
    ),
    "kummer": Family(
        _kummer, (INTERVAL,), _beta_type, lambda p, lam, x, xs: np.exp(lam * x)
    ),
    "bessel": Family(
        _bessel, (HALF_LINE,), _bessel_exponents,
        lambda p, lam, x, xs: np.exp(-1.0 / lam),
    ),
    "hermite_weber": Family(_hermite_weber, (HALF_LINE, FULL_LINE), lambda p, X: (-p["c"],)),
    "airy": Family(_airy, (ROTATED_RAY,)),
    "lauricella_fd": Family(_lauricella_fd, (INTERVAL,), _beta_type, _lauricella_phi),
}


# ----------------------------------------------------------------------
# normal-form correspondence
# ----------------------------------------------------------------------

_PINS = {
    (2, 2): {1: 1.0, 3: -1.0},
    (3, 1): {1: 0.0, 2: 1.0},
    (4,): {1: 0.0, 2: 0.0, 3: 1.0},
}


def family_of_normal_form(lam, x, alpha, r: int) -> NamedFamily:
    """Named family whose kernel equals the chart integrand of the primary
    table form, with the weight dictionary recorded.

    alpha is the flat weight 4-tuple; the confluent partitions other than
    (2, 1, 1) require the pinned entries (positions are 0-based within the
    flat tuple).  The (2, 1, 1) chart integrand depends on alpha_2 and x only
    through their product, which is kummer's X.
    """
    lam = tuple(lam)
    alpha = tuple(complex(a) for a in alpha)
    if len(alpha) != 4:
        raise UnpinnedAlpha("flat weight must have four entries")
    x = as_matrix(x) if x is not None else np.zeros((r, r), dtype=np.complex128)
    pins = _PINS.get(lam, {})
    for pos, val in pins.items():
        if abs(alpha[pos] - val) > 1e-12:
            raise UnpinnedAlpha(
                f"partition {lam} requires alpha_{pos + 1} = {val}, got {alpha[pos]}"
            )
    if lam == (1, 1, 1, 1):
        a = alpha[1] + r
        b = -alpha[3]
        c = alpha[1] + alpha[2] + 2 * r
        return NamedFamily(
            "gauss",
            {"a": a, "b": b, "c": c},
            X=x,
            dictionary={"a": "alpha_2 + r", "b": "-alpha_4",
                        "c": "alpha_2 + alpha_3 + 2r", "X": "x"},
        )
    if lam == (2, 1, 1):
        a = alpha[2] + r
        c = alpha[2] + alpha[3] + 2 * r
        return NamedFamily(
            "kummer",
            {"a": a, "c": c},
            X=alpha[1] * x,
            dictionary={"a": "alpha_3 + r", "c": "alpha_3 + alpha_4 + 2r",
                        "X": "alpha_2 x"},
        )
    if lam == (2, 2):
        c = alpha[2] + r
        return NamedFamily(
            "bessel",
            {"c": c},
            X=x,
            dictionary={"c": "alpha_3 + r", "X": "x",
                        "pin": "alpha_2 = 1, alpha_4 = -1"},
        )
    if lam == (3, 1):
        c = -alpha[3] - r
        return NamedFamily(
            "hermite_weber",
            {"c": c},
            X=x,
            dictionary={"c": "-alpha_4 - r", "X": "x",
                        "pin": "alpha_2 = 0, alpha_3 = 1"},
        )
    if lam == (4,):
        return NamedFamily(
            "airy",
            {},
            X=-x,
            reflect_u=True,
            dictionary={"X": "-x", "pin": "alpha_2 = alpha_3 = 0, alpha_4 = 1",
                        "reflect_u": "kernel equals the chart integrand at -U"},
        )
    raise UnsupportedPartition(f"no named family for partition {lam}")
