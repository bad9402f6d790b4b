"""Chart integrands and the named Hermitian-integral families.

The chart integrand of a coordinate matrix is the block-group character
of the block images t z of a frame t: a product of determinant powers
(the multivalued part) times the exponential of a trace polynomial (the
confluent part).  ``chart_exponent`` is its one form, the log over
stacked frames at every r; ``chart_integrand_batch`` is its exponential,
and ``evaluate_frame`` / ``evaluate_integrand`` are its single-point
calls.  The named families are the concrete
matrix-integral counterparts of the classical hypergeometric kernels,
and ``family_of_normal_form`` records the exact weight dictionary that
identifies them with the table normal forms.

``FAMILIES`` is the one registry of the named families: per tag, the
chains it integrates over (the default first), the endpoint exponents of
the default chain's weight, and the remainder, the log of the kernel over
that weight.  Each is written once: ``named_integrand_batch`` derives
the kernel, and the kernel over any of the family's chain weights, from
the weight (``_log_weight``) and the remainder, and ``Family.phi`` the
per-eigenvalue remainder of the unitarily invariant kernels from the
remainder at 1 x 1 matrices.  The domain check, the r = 1 chain pieces,
the eigenvalue quadrature, the Monte Carlo weights and the CLI defaults
are all read from it.
"""

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

from .characters import PartitionWeight, _log_batch
from .errors import (
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

def _logdet_batch(m):
    return _log_batch(det_batch(m))


def _trace_batch(m):
    return np.einsum("bii->b", m)


def _trace_prod(a, b):
    """Tr(a b) over a stack a and a stack or single matrix b, without
    forming the products."""
    return np.einsum("bij,bji->b" if b.ndim == 3 else "bij,ji->b", a, b)


def named_integrand_batch(fam: NamedFamily, u, over: str | None = None) -> np.ndarray:
    """Kernel values over a stacked (batch, r, r) argument, divided by the
    weight of the chain kind ``over``: exp(log w + remainder - log w_over),
    with w the weight of the family's default chain (``_log_weight``).
    None divides by nothing, which is the kernel; the default chain leaves
    exp(remainder), with no weight evaluated."""
    r = u.shape[1]
    entry = FAMILIES[fam.tag]
    x = fam.X if fam.X is not None else np.zeros((r, r), dtype=np.complex128)
    e = entry.exponents(fam.params, fam.X)
    default = entry.chains[0]
    # the weight first: a singular u raises before a remainder inverts it
    expo = 0.0 if over == default else _log_weight(default, e, u, r)
    expo = expo + entry.remainder(fam.params, e, u, x, fam.xs)
    if over not in (None, default):
        expo = expo - _log_weight(over, e, u, r)
    return np.exp(expo)


@lru_cache(maxsize=16)
def _theta_terms(p: int):
    """Per theta_k, its terms tr(c_{w_1} ... c_{w_n}) as (letter indices
    w - 1, float coefficient), built once per p."""
    if p < 2:
        return ()
    return tuple(tuple(([q - 1 for q in w], float(c)) for w, c in th.sorted_terms())
                 for th in theta_symbolic(p).symbolic)


def _trace_solve(m0, det, m1):
    """tr(m0^{-1} m1) over (..., r, r) stacks, without the product at r <= 2."""
    if m0.shape[-1] == 1:
        return m1[..., 0, 0] / det
    if m0.shape[-1] == 2:
        return (m0[..., 1, 1] * m1[..., 0, 0] - m0[..., 0, 1] * m1[..., 1, 0]
                - m0[..., 1, 0] * m1[..., 0, 1] + m0[..., 0, 0] * m1[..., 1, 1]) / det
    return np.einsum("...ij,...ji->...", np.linalg.inv(m0), m1)


@lru_cache(maxsize=64)
def _chart_layout(pw: PartitionWeight):
    """The columns of z in the order the chart exponent reads them (the
    leading forms, blocks of length 2 first, then the rest of each block),
    the leading weights, the weights of theta_1 = tr(m0^{-1} m_1), all that a
    block of length 2 needs, and per longer block its place and terms."""
    r = pw.r
    starts = [r * sum(pw.lam[:j]) for j in range(len(pw.lam))]
    blocks = sorted(range(len(pw.lam)), key=lambda j: pw.lam[j] != 2)
    cols = [c for j in blocks for c in range(starts[j], starts[j] + r)]
    pairs, longer = [], []
    for i, j in enumerate(blocks):
        nk, alpha = pw.lam[j], pw.alpha[j]
        terms = [(word, alpha[k] * c)
                 for k, theta in enumerate(_theta_terms(nk), start=1) for word, c in theta]
        if nk == 2:
            pairs.append(terms[0][1])
        elif nk > 2:
            longer.append((i, len(cols), nk, terms))
        cols += range(starts[j] + r, starts[j] + nk * r)
    return np.array(cols), np.array([pw.alpha[j][0] for j in blocks]), np.array(pairs), longer


def chart_exponent(pw: PartitionWeight, entries):
    """The log of the chart integrand of weight pw at the coordinate matrix
    with the (m, N) ``entries``, over a stacked (batch, r, m) frame t:
    sum_j alpha_{j,0} log det m0_j + sum_{j,k} alpha_{j,k} theta_k, with
    m_q = t z_q the images of block j and theta_k the trace polynomial of
    the ratios m0_j^{-1} m_q. The logs of all blocks are one ``_log_batch``
    call, before any ratio is formed. At r = 1 an image is t_0 z_0 + t_1 z_1,
    so at t = (1, u) it rounds as a + u b does; above, one GEMM.

    At r = 1, ``entries`` may hold the (K, 2, N) entries of K points: the
    exponent then takes (t, which), a (rows, nodes, 1, 2) t whose rows
    which labels with points, each row's (2, N) coefficients read once and
    broadcast over its frames. The values come out flat, row after row."""
    order, lead, pairs, longer = _chart_layout(pw)
    r, ell, n = pw.r, len(pw.lam), len(pairs)
    if entries.ndim == 2:
        rows = entries[:, order]
    else:
        # (2, K, 1, N): one row pair per point, against the (nodes, 1) frames of its rows
        rows = entries[:, :, order].transpose(1, 0, 2)[:, :, None]

    def exponent(t, which=None):
        if r == 1:
            a, b = rows if which is None else rows.take(which, axis=1)
            images = (t[..., 0, :1] * a + t[..., 0, 1:] * b).reshape(-1, 1, a.shape[-1])
        else:
            images = matmul_batch(t, rows)
        batch = len(images)
        # the leading forms of all blocks, a (batch, blocks, r, r) view
        m0 = images[:, :, : ell * r].reshape(batch, r, ell, r).swapaxes(1, 2)
        det = det_batch(m0)
        out = _log_batch(det) @ lead
        if n:
            m1 = images[:, :, ell * r : (ell + n) * r].reshape(batch, r, n, r).swapaxes(1, 2)
            out += _trace_solve(m0[:, :n], det[:, :n], m1) @ pairs
        for j, o, nk, terms in longer:
            rest = images[:, :, o : o + (nk - 1) * r]
            if r == 1:  # the ratios are scalars, and a trace is their product
                c = rest[:, 0] / det[:, j, None]
                for word, weight in terms:
                    out += weight * reduce(operator.mul, [c[:, q] for q in word])
            else:
                sol = matmul_batch(inv_batch(m0[:, j]), rest)
                c = [sol[:, :, q * r : (q + 1) * r] for q in range(nk - 1)]
                for word, weight in terms:
                    out += weight * _trace_batch(reduce(matmul_batch, [c[q] for q in word]))
        return out

    return exponent


def chart_integrand_batch(spec: IntegrandSpec, t) -> np.ndarray:
    """Integrand over a stacked (batch, r, m) frame t; at t = (1, u) it is the
    chart integrand at u."""
    return np.exp(chart_exponent(spec.pw, spec.z.entries)(t))


# ----------------------------------------------------------------------
# family registry
# ----------------------------------------------------------------------

def _log_weight(kind: str, e, u, r: int):
    """The log of the chain weight that ``integrate._chain_law`` integrates,
    for the registry exponents e, at a stacked (batch, r, r) u:
    (e0 - r) log det u + (e1 - r) log det(1 - u) on the interval,
    (e0 - r) log det u - e1 Tr u on the half line (e1 = 1 when there is
    none), -Tr u^2 / 2 on the full line and 0 on the rotated ray, which has
    no weight."""
    if kind == INTERVAL:
        return (e[0] - r) * _logdet_batch(u) + (e[1] - r) * _logdet_batch(np.eye(r) - u)
    if kind == HALF_LINE:
        return (e[0] - r) * _logdet_batch(u) - (e[1] if len(e) > 1 else 1.0) * _trace_batch(u)
    if kind == FULL_LINE:
        return -0.5 * _trace_prod(u, u)
    return 0.0


def _log_factor(b, u, x):
    """-b log det(1 - u x)."""
    return -b * _logdet_batch(np.eye(u.shape[-1]) - matmul_batch(u, x))


def _bessel(p, e, u, x, xs):
    # the weight's decay at the mean eigenvalue of -X, given back
    return _trace_prod(u, x) + e[1] * _trace_batch(u) - _trace_batch(inv_batch(u))


def _hermite_weber(p, e, u, x, xs):
    # the half line's unit decay, given back
    return _trace_prod(u, x) - 0.5 * _trace_prod(u, u) + _trace_batch(u)


def _beta_type(p, X):
    return p["a"], p["c"] - p["a"]


def _bessel_exponents(p, X):
    # exp(Tr(u X)) decays at the rate of the mean eigenvalue of -X
    return p["c"], 0.0 if X is None else -complex(np.trace(X)) / X.shape[0]


def _no_remainder(p, e, u, x, xs):
    """The remainder of a kernel that is its weight."""
    return np.zeros(len(u), dtype=np.complex128)


@dataclass(frozen=True)
class Family:
    """Registry entry of one named kernel: the kernel is the weight of its
    default chain times exp(remainder).

    chains: the chain kinds the family integrates over, the default first.

    exponents(params, X): the exponents e of that weight at the chain ends
    (``_log_weight``). gamma_r's e1 is its ``rate`` (default 1), which may
    be complex with a positive real part.

    remainder(params, e, u, X, xs): the log of the kernel over that weight,
    over a stacked (batch, r, r) u (real in ``phi``), with X the zero
    matrix when the family has none. It adds its determinant logs
    (``_logdet_batch``, the policy of ``_log_batch``) and trace terms into
    one exponent; a product with X is one ``matmul_batch`` against the
    single X, and a trace of a product is taken by einsum without forming
    the product.

    invariant: the kernel is unitarily invariant at scalar X and xs, where
    ``phi`` leaves what the weight does not take per eigenvalue.
    """

    chains: tuple
    exponents: Callable = lambda p, X: ()
    remainder: Callable = _no_remainder
    invariant: bool = False

    @property
    def domain(self) -> str:
        """The widest chain; a Hermitian argument's eigenvalues lie on it."""
        return max(self.chains, key=CHAIN_KINDS.index)

    def phi(self, params, lam, x, xs):
        """The remainder at the 1 x 1 matrices lam_i, for scalar arguments
        x and xs, as exp: kernel(diag(lam)) = prod_i weight(lam_i) phi(lam_i)."""
        if self.remainder is _no_remainder:
            # exp(0), without an exponential per Monte Carlo eigenvalue
            return np.ones(lam.shape, dtype=np.complex128)
        one = np.ones((1, 1), dtype=np.complex128)
        X = x * one
        rem = self.remainder(params, self.exponents(params, X), lam.reshape(-1, 1, 1),
                             X, tuple(v * one for v in xs))
        return np.exp(rem).reshape(lam.shape)


FAMILIES = {
    "beta_r": Family((INTERVAL,), lambda p, X: (p["a"], p["b"]), invariant=True),
    "gamma_r": Family((HALF_LINE,), lambda p, X: (p["a"], p.get("rate", 1.0)), invariant=True),
    "gaussian_r": Family((FULL_LINE,), invariant=True),
    "gauss": Family((INTERVAL,), _beta_type, invariant=True,
                    remainder=lambda p, e, u, x, xs: _log_factor(p["b"], u, x)),
    "kummer": Family((INTERVAL,), _beta_type, invariant=True,
                     remainder=lambda p, e, u, x, xs: _trace_prod(u, x)),
    "bessel": Family((HALF_LINE,), _bessel_exponents, _bessel, invariant=True),
    "hermite_weber": Family((HALF_LINE, FULL_LINE), lambda p, X: (-p["c"],), _hermite_weber),
    "airy": Family((ROTATED_RAY,), remainder=lambda p, e, u, x, xs: (
        _trace_prod(u, x) - np.einsum("bij,bjk,bki->b", u, u, u) / 3.0)),
    "lauricella_fd": Family((INTERVAL,), _beta_type, invariant=True,
                            remainder=lambda p, e, u, x, xs: sum(
                                _log_factor(bj, u, xj) for bj, xj in zip(p["bs"], xs))),
}


# ----------------------------------------------------------------------
# normal-form correspondence
# ----------------------------------------------------------------------

# per table form that has a named family, its pinned flat weight entries
_PINS = {
    (1, 1, 1): {}, (2, 1): {}, (1, 1, 1, 1): {}, (2, 1, 1): {},
    (2, 2): {1: 1.0, 3: -1.0},
    (3, 1): {1: 0.0, 2: 1.0},
    (4,): {1: 0.0, 2: 0.0, 3: 1.0},
}


def family_of_normal_form(lam, x, alpha, r: int) -> NamedFamily:
    """Named family whose kernel equals the chart integrand of the primary
    table form, with the weight dictionary recorded.

    alpha is the flat weight, one entry per unit of |lam|; the confluent
    partitions of four other than (2, 1, 1) require the pinned entries
    (positions are 0-based within the flat tuple). (1, 1, 1) is the matrix
    beta integral and (2, 1) the matrix gamma integral at the decay rate
    -alpha_2; neither reads x. The (2, 1, 1) chart integrand depends on
    alpha_2 and x only through their product, which is kummer's X.
    """
    lam = tuple(lam)
    if lam not in _PINS:
        raise UnsupportedPartition(f"no named family for partition {lam}")
    alpha = tuple(complex(a) for a in alpha)
    if len(alpha) != sum(lam):
        raise UnpinnedAlpha(f"flat weight must have {sum(lam)} entries")
    x = as_matrix(x) if x is not None else np.zeros((r, r), dtype=np.complex128)
    for pos, val in _PINS[lam].items():
        if abs(alpha[pos] - val) > 1e-12:
            raise UnpinnedAlpha(
                f"partition {lam} requires alpha_{pos + 1} = {val}, got {alpha[pos]}"
            )
    if lam == (1, 1, 1):
        return NamedFamily("beta_r", {"a": alpha[1] + r, "b": alpha[2] + r},
                           dictionary={"a": "alpha_2 + r", "b": "alpha_3 + r"})
    if lam == (2, 1):
        return NamedFamily("gamma_r", {"a": alpha[2] + r, "rate": -alpha[1]},
                           dictionary={"a": "alpha_3 + r", "rate": "-alpha_2"})
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
    # (4,)
    return NamedFamily(
        "airy",
        {},
        X=-x,
        reflect_u=True,
        dictionary={"X": "-x", "pin": "alpha_2 = alpha_3 = 0, alpha_4 = 1",
                    "reflect_u": "kernel equals the chart integrand at -U"},
    )
