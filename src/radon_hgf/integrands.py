"""Chart integrands and the named Hermitian-integral families.

The chart integrand of a coordinate matrix is the block-group character
of the block images t z of a frame t: a product of determinant powers
(the multivalued part) times the exponential of a trace polynomial (the
confluent part).  ``chart_exponent`` is its one form, the log over
stacked frames at every r; ``chart_integrand_batch`` is its exponential,
and ``evaluate_frame`` / ``evaluate_integrand`` are its single-point
calls.  The named families are the concrete
matrix-integral counterparts of the classical hypergeometric kernels.
``_FORMS`` maps each table normal form that has one to its family, with
the flat weight entries it pins, and every all-ones form of five or more
blocks to the matrix Lauricella F_D; ``family_of_normal_form`` reads it.

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
from dataclasses import dataclass
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

    ``tag`` names its entry in ``FAMILIES``, and ``reflect_u`` marks the
    chain reorientation u -> -u under which the cubic family is the chart
    integrand of its table form.
    """

    tag: str
    params: dict
    X: np.ndarray | None = None
    xs: tuple = ()
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
    """tr(m0^{-1} m1) over (..., r, r) stacks, r >= 2, without the product at r = 2."""
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
    call, before any ratio is formed. Above r = 1 the images are one GEMM.

    At r = 1 the exponent takes the frames as the pair (t_0, t_1) of their
    entries, arrays or scalars that broadcast to one shape, and the images
    are block-major: (N, batch) planes, one per column of z, so that each
    product, log and ratio runs over contiguous frames. An image is
    t_0 z_0 + t_1 z_1, so at t = (1, u) it rounds as a + u b does; a
    scalar t_0 = 1 takes t_0 z_0 once per point, to the same bits, as its
    products are exact. The two sums over columns (the leading logs
    against their weights, the length-2 ratios against theirs) read a
    (batch, columns) buffer that the logs and ratios are written into
    through its transpose, so that BLAS sums each frame's row; a product
    with the (columns, batch) planes sums in another order and moves the
    last bits.
    ``entries`` may hold the (K, 2, N) entries of K points, read once as
    (2, N, K) planes: the exponent then takes (t, which), a t of (rows,
    nodes) entries whose rows which labels with points, each row's
    coefficients broadcast over its nodes. The values come out flat, row
    after row."""
    order, lead, pairs, longer = _chart_layout(pw)
    r, ell, n = pw.r, len(pw.lam), len(pairs)
    rows = entries[..., order]
    if r == 1:
        # (2, N, K): the a and b planes, a point per column; one matrix is K = 1
        rows = rows[..., None] if rows.ndim == 2 else rows.transpose(1, 2, 0)
        rows = np.ascontiguousarray(rows, dtype=np.complex128)

    def exponent(t, which=None):
        if r == 1:
            a, b = rows if which is None else rows.take(which, axis=2)[..., None]
            t0, t1 = t
            images = t1 * b
            images += t0 * a
            images = images.reshape(len(images), -1)
            logs = np.empty((images.shape[1], ell), dtype=np.complex128)
            _log_batch(images[:ell], out=logs.T)
            out = logs @ lead
            if n:
                ratios = np.empty((images.shape[1], n), dtype=np.complex128)
                np.divide(images[ell : ell + n], images[:n], out=ratios.T)
                out += ratios @ pairs
            for j, o, nk, terms in longer:
                # the ratios are scalars, and a trace is their product
                c = images[o : o + nk - 1] / images[j]
                for word, weight in terms:
                    out += weight * reduce(operator.mul, [c[q] for q in word])
            return out
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
            sol = matmul_batch(inv_batch(m0[:, j]), images[:, :, o : o + (nk - 1) * r])
            c = [sol[:, :, q * r : (q + 1) * r] for q in range(nk - 1)]
            for word, weight in terms:
                out += weight * _trace_batch(reduce(matmul_batch, [c[q] for q in word]))
        return out

    return exponent


def chart_integrand_batch(spec: IntegrandSpec, t) -> np.ndarray:
    """Integrand over a stacked (batch, r, m) frame t; at t = (1, u) it is the
    chart integrand at u."""
    exponent = chart_exponent(spec.pw, spec.z.entries)
    return np.exp(exponent((t[:, 0, 0], t[:, 0, 1]) if spec.pw.r == 1 else t))


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

def _one(xs, r):
    """The one residual parameter of a table form, zero when none is given."""
    return xs[0] if xs else np.zeros((r, r), dtype=np.complex128)


def _all_ones(al, r, xs):
    """(1^n), n >= 5: the matrix Lauricella F_D in the n - 3 residual parameters."""
    if len(xs) != len(al) - 3:
        raise ShapeMismatch(f"partition (1^{len(al)}) takes {len(al) - 3} residual "
                            f"parameters, got {len(xs)}")
    return NamedFamily("lauricella_fd", {"a": al[1] + r, "bs": tuple(-a for a in al[3:]),
                                         "c": al[1] + al[2] + 2 * r}, xs=xs)


# per table form with a named family: its pinned flat weight entries (0-based)
# and its family at the flat weight al, the rank r and the residual parameters
# xs. (1, 1, 1) and (2, 1) read no xs; the (2, 1, 1) chart integrand sees
# alpha_2 and x only as kummer's X; the airy kernel is the (4,) one at -u.
_FORMS = {
    (1, 1, 1): ({}, lambda al, r, xs: NamedFamily("beta_r", {"a": al[1] + r, "b": al[2] + r})),
    (2, 1): ({}, lambda al, r, xs: NamedFamily("gamma_r", {"a": al[2] + r, "rate": -al[1]})),
    (1, 1, 1, 1): ({}, lambda al, r, xs: NamedFamily(
        "gauss", {"a": al[1] + r, "b": -al[3], "c": al[1] + al[2] + 2 * r}, X=_one(xs, r))),
    (2, 1, 1): ({}, lambda al, r, xs: NamedFamily(
        "kummer", {"a": al[2] + r, "c": al[2] + al[3] + 2 * r}, X=al[1] * _one(xs, r))),
    (2, 2): ({1: 1.0, 3: -1.0},
             lambda al, r, xs: NamedFamily("bessel", {"c": al[2] + r}, X=_one(xs, r))),
    (3, 1): ({1: 0.0, 2: 1.0},
             lambda al, r, xs: NamedFamily("hermite_weber", {"c": -al[3] - r}, X=_one(xs, r))),
    (4,): ({1: 0.0, 2: 0.0, 3: 1.0},
           lambda al, r, xs: NamedFamily("airy", {}, X=-_one(xs, r), reflect_u=True)),
}


def family_of_normal_form(lam, xs, alpha, r: int) -> NamedFamily:
    """Named family whose kernel equals the chart integrand of the primary
    table form lam at the residual parameters xs (the tuple that
    ``residual_parameters`` and ``reduce_orbit`` return): its ``_FORMS``
    row, or ``_all_ones`` for an all-ones form of five or more blocks.
    alpha is the flat weight, one entry per unit of |lam|, and must hold
    the row's pins."""
    lam = tuple(lam)
    if len(lam) >= 5 and set(lam) == {1}:
        pins, family = {}, _all_ones
    elif lam in _FORMS:
        pins, family = _FORMS[lam]
    else:
        raise UnsupportedPartition(f"no named family for partition {lam}")
    alpha = tuple(complex(a) for a in alpha)
    if len(alpha) != sum(lam):
        raise UnpinnedAlpha(f"flat weight must have {sum(lam)} entries")
    for pos, val in pins.items():
        if abs(alpha[pos] - val) > 1e-12:
            raise UnpinnedAlpha(f"partition {lam} requires alpha_{pos + 1} = {val}, "
                                f"got {alpha[pos]}")
    return family(alpha, r, tuple(as_matrix(x) for x in xs))
