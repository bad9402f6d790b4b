"""Numerical evaluation of the hypergeometric integrals.

Three strategies:

* adaptive-1d (r = 1): Gauss-Kronrod subdivision over concrete chains
  whose endpoints follow the branch-point roots of the coordinate
  matrix; a ray is one Moebius arc from its origin to the root of block
  1 (inf for a table form), not a truncated tail. Each piece splits into
  halves, each over tau in [0, 1] under one map y = start + span tau^kappa,
  a power substitution when the start is singular (kappa > 1) and a
  straight one otherwise, followed by the arc on rays. The halves run in
  lock-step rounds: every open half bisects its worst panel, and the
  nodes of all new panels go to one vectorized call of the integrand.
  Every call integrates a stack of points (``_stack``), each (half,
  point) pair with its own bisection tree and a row of nodes per pair: a
  plain call a stack of one, and a call inside a mesh scope
  (``_mesh_scope``, entered by the stencil checks in ``hgs``) the stack
  of all registered points. A point's value is the same in either, bit
  for bit;
* eigen-tensor (unitarily invariant integrands): reduction to an r-fold
  eigenvalue integral against the squared Vandermonde over a Gauss rule
  whose weight absorbs the determinant powers, summed in closed form by
  Andreief's identity;
* haar-mc (general r): importance-sampled Monte Carlo over U = V L V*
  with V Haar-distributed and eigenvalues L drawn from a chain density;
  U is formed from the first r - 1 columns of V, which are all that get
  orthonormalized, and a unitarily invariant kernel is evaluated at
  U = L, with no V drawn.

``integrate_family`` alone picks among them for a named family, for
``radon_hgf`` and the CLI's ``eval`` alike: ``auto`` is adaptive-1d at
r = 1, and at r >= 2 eigen-tensor where it applies, else haar-mc.

The eigenvalue reduction constant c_r = pi^{r(r-1)/2} / prod_{j<=r} j!
is validated against the closed product formula by the test suite before
anything else relies on it.
"""

import cmath
import contextlib
import contextvars
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from ._kernels import tensor_vdm_sum, vdm_sq_batch
from .characters import PartitionWeight, chi_lambda
from .errors import (
    DivergentEndpoint,
    IncompatibleChain,
    NonConvergent,
    NotInvariant,
    NotInZLambda,
    OnBranchLocus,
    RadonHGFError,
    ShapeMismatch,
    SingularBlock,
    UnpinnedAlpha,
    UnsupportedCount,
    UnsupportedPartition,
)
from .grassmann import CoordMatrix, member_mask, require_member
from .integrands import (
    CHAIN_KINDS,
    FAMILIES,
    FULL_LINE,
    HALF_LINE,
    INTERVAL,
    ROTATED_RAY,
    NamedFamily,
    _log_weight,
    chart_exponent,
    family_of_normal_form,
    named_integrand_batch,
)
from .linalg import conjugate_diag, det, haar_from_gaussian, scalar_multiple
from .normal_form import pattern, reduce_orbit, residual_parameters
from .quadrature import genlaguerre, hermite_scaled, jacobi_01
from .rng import RandomStream, thread_count

# ----------------------------------------------------------------------
# chain and estimate types
# ----------------------------------------------------------------------

# half-angle of the rotated-ray chain (r = 1)
RAY_HALF_ANGLE = 2.0 * math.pi / 3.0
# subdivisions of one adaptive integral before it gives up
_MAX_INTERVALS = 4000


def _require_rank(r: int):
    if r < 1:
        raise ShapeMismatch(f"matrix size r must be at least 1, got {r}")


@dataclass(frozen=True)
class ChainSpec:
    kind: str
    r: int = 1

    def __post_init__(self):
        if self.kind not in CHAIN_KINDS:
            raise IncompatibleChain(f"unknown chain kind {self.kind!r}")
        _require_rank(self.r)


@dataclass(frozen=True)
class IntegralEstimate:
    value: complex
    abs_error_est: float
    method: str
    nodes_or_samples: int
    seed: int | None = None

    def as_dict(self):
        return {
            "value": [self.value.real, self.value.imag],
            "abs_error_est": self.abs_error_est,
            "method": self.method,
            "nodes_or_samples": self.nodes_or_samples,
            "seed": self.seed,
        }


def _finite(est: IntegralEstimate) -> IntegralEstimate:
    """The estimate, when its value and error bar are finite."""
    if not (cmath.isfinite(est.value) and math.isfinite(est.abs_error_est)):
        raise NonConvergent(f"{est.method} estimate is not finite: "
                            f"{est.value} +- {est.abs_error_est}")
    return est


@dataclass(frozen=True)
class Budget:
    tol: float = 1e-10
    nodes: int = 64
    samples: int = 10**6
    stream: RandomStream = RandomStream(0)


def weyl_constant(r: int) -> float:
    """pi^{r(r-1)/2} / prod_{j=1}^r j!"""
    acc = math.pi ** (r * (r - 1) / 2.0)
    for j in range(1, r + 1):
        acc /= math.factorial(j)
    return acc


# ----------------------------------------------------------------------
# Gauss-Kronrod 15(7) adaptive integration in lock-step rounds
# ----------------------------------------------------------------------

# QUADPACK dqk15's 33-digit constants: the nonnegative nodes of the
# 15-point Kronrod rule on [-1, 1], the 7-point Gauss nodes among them at
# odd places, their Kronrod weights and the Gauss weights
_GK_NODES = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_GK_WK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_GK_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

# the 15 nodes of a panel on [-1, 1] as (+x, -x) pairs with 0 last, and
# the Kronrod and the embedded Gauss weights in that order, as two columns
_GK_X = np.array([s * x for x in _GK_NODES[:-1] for s in (1.0, -1.0)] + [0.0])
_GK_KG = np.array([
    [w for w in _GK_WK[:-1] for _ in (0, 1)] + [_GK_WK[-1]],
    [_GK_WG[i // 2] if i % 2 else 0.0 for i in range(7) for _ in (0, 1)] + [_GK_WG[3]],
], dtype=np.complex128).T


# the one panel every half starts from
_FIRST_PANEL = np.array([[[0.0, 1.0]]])


def _power_kappa(exponent) -> int:
    """Substitution order for an endpoint factor (u - a)^exponent."""
    if exponent is None:
        return 1
    beta = complex(exponent).real
    if beta <= -1.0:
        raise DivergentEndpoint(f"endpoint exponent {exponent} is not integrable")
    if beta >= 4.0:
        return 1
    if abs(beta - round(beta)) < 1e-12 and round(beta) >= 0:
        return 1
    return min(40, max(1, math.ceil(7.0 / (1.0 + beta))))


@dataclass(frozen=True)
class Segment:
    """Oriented straight segment with optional endpoint power exponents."""

    a: complex
    b: complex
    exp_a: complex | None = None
    exp_b: complex | None = None


@dataclass(frozen=True)
class Ray:
    """From origin out along exp(i phase) to the far end: inf, or a finite
    point (the root that the table form puts at inf); exp0 and exp_far are
    the weight exponents at the two ends."""

    origin: complex
    phase: float = 0.0
    exp0: complex | None = None
    far: complex | None = None
    exp_far: complex | None = None


@dataclass(frozen=True)
class RayPair:
    """From the far end in along exp(i start) to 0, then from 0 out along
    exp(i end) to the far end (inf when far is None)."""

    start: float
    end: float
    far: complex | None = None
    exp_far: complex | None = None


# the arc (o, w, q) of a half off the arcs, on which D = 1 and u = y
_NO_ARC = (0.0, 1.0, 0.0)

_Placement = namedtuple("_Placement", "maps atol signs failures rows point")

# q = w / (far - o) of a ray's arc in Python's complex arithmetic, over
# Python numbers or object arrays of them; 0 at a far end at infinity (None)
_ARC_Q = np.frompyfunc(lambda w, o, far: 0.0 if far is None else w / (far - o), 3, 1)


def _split(a, b, exp_a, exp_b, atol, sign, arc=_NO_ARC):
    """The halves from a and from b to their midpoint: per half its (exponent,
    on arc, tolerance share, sign) and columns (start, span, end, o, w, q)."""
    mid = 0.5 * (a + b)
    return [((exp_a, arc is not _NO_ARC, 0.5 * atol, sign), (a, mid - a, mid, *arc)),
            ((exp_b, arc is not _NO_ARC, 0.5 * atol, -sign), (b, mid - b, mid, *arc))]


def _place(pieces, tol, K=1):
    """The halves of a chain at K points, whose pieces hold Python numbers
    or (K,) object arrays of them, None marking a far end at infinity, so
    that a point is placed by the same arithmetic in a stack and alone. A
    segment splits into halves, each over tau in [0, 1] under
    y = start + (end - start) tau^kappa, kappa > 1 when the start carries
    a power (``_power_kappa``). A ray is the Moebius arc u(s) = o + w s / D(s),
    s in [0, 1], with D(s) = (1 - s) + q s, w = exp(i phase) and
    q = w / (far - o): it leaves o along the ray and ends at the far end
    (with no far end q = 0, the ray under t = s / (1 - s)). When the far
    end lies behind o the arc passes through inf at s* = 1 / (1 - q), where
    the integrand's homogeneity (leading weights summing to -2) keeps f du
    smooth; the ray is cut there into two stretches of s with half its
    tolerance each, so that no node evaluates it. A stretch of s splits as
    a segment does; near s = 1 the integrand behaves as (1 - s)^exp_far.

    Returns a ``_Placement`` with one row per (half, point) pair, each
    point's halves contiguous and in chain order: ``maps`` = (kappa,
    on_arc, cols), per row its kappa, its arc flag and its start, span,
    end, o, w, q; per row its tolerance share, sign and the error its
    endpoint exponent raises (or None); per point its range of rows; and
    per row its point."""
    strands = []  # per segment or ray its sign and piece
    for piece in pieces:
        if isinstance(piece, RayPair):
            # the outward ray at the end minus the outward ray at the start
            ends = (None, piece.far, piece.exp_far)
            strands += [(1.0, Ray(0.0, piece.end, *ends)), (-1.0, Ray(0.0, piece.start, *ends))]
        elif isinstance(piece, (Segment, Ray)):
            strands.append((1.0, piece))
        else:
            raise IncompatibleChain(f"unknown chain piece {piece!r}")
    if not strands:
        raise IncompatibleChain("a chain needs at least one piece")
    # per half of a group of points: the points, (kappa, on arc, tolerance
    # share), sign, the error of its endpoint exponent and its columns
    everyone, records = np.arange(K), []
    for sign, piece in strands:
        if isinstance(piece, Segment):
            groups = [(everyone, _split(piece.a, piece.b, piece.exp_a, piece.exp_b, tol, sign))]
        else:
            w, o = cmath.exp(1j * piece.phase), piece.origin
            q = np.full(K, _ARC_Q(w, o, piece.far), dtype=complex)
            cut = (q.imag == 0.0) & (q.real < 0.0)
            groups = []
            for points in (everyone[~cut], everyone[cut]):
                if not len(points):
                    continue
                arc = tuple(v[points] if isinstance(v, np.ndarray) else v for v in (o, w, q))
                if cut[points[0]]:
                    s = 1.0 / (1.0 - arc[2].real)
                    halves = (_split(0.0, s, piece.exp0, None, 0.5 * tol, sign, arc)
                              + _split(s, 1.0, None, piece.exp_far, 0.5 * tol, sign, arc))
                else:
                    halves = _split(0.0, 1.0, piece.exp0, piece.exp_far, tol, sign, arc)
                groups.append((points, halves))
        for points, halves in groups:
            for (exponent, on_arc, atol, sign), columns in halves:
                try:
                    kappa, exc = _power_kappa(exponent), None
                except DivergentEndpoint as err:
                    kappa, exc = 1, err
                records.append((points, (kappa, on_arc, atol), sign, exc, columns))
    # the columns of the records' rows one after another; then the rows
    # sorted by point, stably, so that each point's halves stay in chain
    # order
    sizes = [len(r[0]) for r in records]
    offsets = list(accumulate(sizes, initial=0))
    cols = np.empty((offsets[-1], 6), dtype=np.complex128)
    for a, b, r in zip(offsets, offsets[1:], records):
        for i, v in enumerate(r[4]):
            cols[a:b, i] = v
    point = np.concatenate([r[0] for r in records])
    order = np.argsort(point, kind="stable")
    record = np.repeat(np.arange(len(records)), sizes)[order]
    table = np.array([(*r[1], r[2]) for r in records])[record]
    failures = [r[3] for r in records]
    starts = list(accumulate(np.bincount(point, minlength=K).tolist(), initial=0))
    return _Placement((table[:, 0], table[:, 1] != 0.0, cols[order]), table[:, 2],
                      table[:, 3], [failures[r] for r in record.tolist()],
                      list(map(range, starts, starts[1:])), point[order])


def _gk15(f, maps, pairs, ends, which):
    """(value, error) of the new panels of the (half, point) pairs, rows
    ``pairs`` of the placement, as one (pairs, panels, 2) complex array
    whose errors have no imaginary part, in one call of f on every node.
    ``ends`` holds the new (tau0, tau1) panels of each pair. A node tau
    goes to y = start + span tau^kappa under the columns of its pair and,
    on an arc, on to u = o + w y / D with D = (1 - y) + q y. f takes the
    nodes as (pairs, nodes) rows and ``which``, the point of each pair. A
    node whose offset rounds to the start is dropped: the jacobian factor
    damps its true contribution past double precision, and on an arc s = 1
    is where D vanishes. The end of the half stands in for it in the call,
    and its value is 0."""
    kappa, on_arc, cols = maps
    half = 0.5 * (ends[..., 1] - ends[..., 0])
    tau = (0.5 * (ends[..., 0] + ends[..., 1]))[..., None] + half[..., None] * _GK_X
    kap = kappa.take(pairs)[:, None, None]
    tk, jac, arc = tau**kap, kap * tau ** (kap - 1.0), on_arc.take(pairs)
    start, span, end, o, w, q = cols.take(pairs, axis=0).T[:, :, None, None]
    y = start + span * tk
    drop = y == start
    dropped = np.count_nonzero(drop)
    if dropped:
        y[drop] = np.broadcast_to(end, y.shape)[drop]
    arcs = np.count_nonzero(arc)
    if arcs:
        d = (1.0 - y) + q * y
        if arcs < len(arc):
            # D = 1 off arcs, where u = y
            d = np.where(arc[:, None, None], d, 1.0)
        y = o + w * y / d
    fv = np.asarray(f(y.reshape(len(y), -1), which), dtype=np.complex128).reshape(y.shape)
    if dropped:
        fv[drop] = 0.0
    if arcs:
        fv = fv * w / (d * d)
    fv = (fv * jac * span).reshape(-1, 15)
    # numpy multiplies a lone row by the vector-matrix path, which rounds
    # differently from the same row inside a matrix product
    kg = (np.repeat(fv, 2, axis=0) if len(fv) == 1 else fv) @ _GK_KG
    out = kg[: len(fv)] * half.reshape(-1, 1)
    diff = np.abs(out[:, 0] - out[:, 1])
    # the minimum is diff once diff >= 1, where (200 diff)^1.5 may overflow
    out[:, 1] = np.minimum(diff, (200.0 * diff) ** 1.5)
    return out.reshape(len(pairs), -1, 2)


def _round(f, maps, pairs, ends, which, fail):
    """``_gk15`` of the new panels of the open pairs. When f raises, a
    bisection over prefixes of the pairs finds the first pair that raises,
    in at most ceil(log2 pairs) more calls of f, each on the part of a
    prefix not yet evaluated: that pair fails with the error of the
    shortest prefix that raises, which is its own, and the estimates are
    those of the pairs before it, each row rounded as in any batch."""
    try:
        return _gk15(f, maps, pairs, ends, which)
    except RadonHGFError as exc:
        error = exc
    # the first lo pairs have their estimates in parts; the first hi raise error
    lo, hi = 0, len(pairs)
    parts = [np.zeros((0, ends.shape[1], 2), dtype=np.complex128)]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parts.append(_gk15(f, maps, pairs[lo:mid], ends[lo:mid], which[lo:mid]))
            lo = mid
        except RadonHGFError as exc:
            error, hi = exc, mid
    fail(int(pairs[lo]), error)
    return np.concatenate(parts)


def _lockstep(f, place, tol):
    """Adaptive GK15 integrals of a stack of K points in lock-step rounds,
    one bisection tree per (half, point) pair of ``place`` (``_place``).

    f(u, which) is the integrand at (pairs, nodes) rows u whose points
    which labels (``_gk15``). A pair closes once its error is within
    max(atol, tol |total|) (QUADPACK's rule) or it holds _MAX_INTERVALS
    panels. In each round every open pair bisects its own worst panel, the
    one with the largest error (the earliest made among equals), and the
    new panels of all open pairs go to one call of f. So each pair takes
    the panels, and its point the estimate, that it takes alone. A failing
    pair closes the later halves of its point and every later point, as if
    the points ran one after another. Returns the outcomes of the points
    up to the first that fails: an ``IntegralEstimate`` per point, and for
    the failing point the first error of its halves in chain order.

    Every open pair has bisected once per round, so the open pairs hold
    equally many panels: their trees are arrays with a row per pair and a
    column per panel in the order made, and a value and its error travel
    together as one complex pair (the error with no imaginary part), so
    that each step of the bookkeeping is one array operation whatever K
    is."""
    maps, atol, signs, failures, rows, point = place
    K = len(rows)
    # per pair once it closed: its total, error and panels, as complex
    # numbers; per failed point: its first failing pair and the error
    closed = np.zeros((len(point), 3), dtype=np.complex128)
    failed, alive = {}, np.ones(len(point), dtype=bool)

    def fail(i, exc):
        k = int(point[i])
        if k not in failed or i < failed[k][0]:
            failed[k] = (i, exc)
        alive[i:] = False

    if any(failures):
        first = next(i for i, exc in enumerate(failures) if exc is not None)
        fail(first, failures[first])
    # the open pairs, their new panels, tolerance shares and running
    # (total, error), and per panel made its (value, error), the error -inf
    # once bisected, and its ends; bisected holds each pair's last one
    on = np.flatnonzero(alive)
    ends, share = _FIRST_PANEL.repeat(len(on), axis=0), atol[on]
    acc = bisected = np.zeros((len(on), 2), dtype=np.complex128)
    vals, taus = np.empty((len(on), 16, 2), dtype=np.complex128), np.empty((len(on), 16, 2))
    every, made, rounds = np.arange(len(on)), 0, 0
    # a value that overflows makes its pair fail as not finite, not warn
    with np.errstate(over="ignore", invalid="ignore"):
        while len(on):
            rounds += 1
            new = _round(f, maps, on, ends, point[on], fail)
            if len(new) < len(on):
                on, ends, share, acc, bisected, vals, taus = (
                    v[: len(new)] for v in (on, ends, share, acc, bisected, vals, taus))
                every = np.arange(len(on))
            acc = new[:, 0] if rounds == 1 else acc + ((new[:, 0] + new[:, 1]) - bisected)
            going = acc[:, 1].real > np.fmax(share, tol * np.abs(acc[:, 0]))
            if rounds >= _MAX_INTERVALS:
                going[:] = False
            if not going.all():
                # the closing pairs keep their (total, error) and rounds;
                # only those that fail go through Python
                stop = ~going
                done, closing = on[stop], acc[stop]
                closed[done, :2], closed[done, 2] = closing, rounds
                # a finite sum has finite terms
                if not np.isfinite(closing.sum()):
                    for i in done[~np.isfinite(closing).all(axis=1)].tolist():
                        fail(i, NonConvergent("the integrand is not finite along the chain"))
                if rounds >= _MAX_INTERVALS:
                    for i, (total, error) in zip(done.tolist(), closing.tolist()):
                        error = error.real
                        if (cmath.isfinite(total) and math.isfinite(error) and error > 10.0 * max(
                                atol[i], tol * abs(total), 1e-300)):
                            fail(i, NonConvergent(f"interval budget {_MAX_INTERVALS} exhausted "
                                                  f"with error {error:.2e}"))
                going &= alive[on]
                if not going.any():
                    break
                on, ends, new, share, acc, vals, taus = (
                    v[going] for v in (on, ends, new, share, acc, vals, taus))
                every = np.arange(len(on))
            # each pair keeps its new panels and bisects its worst one
            P = new.shape[1]
            if made + P > vals.shape[1]:
                vals = np.concatenate([vals, np.empty_like(vals)], axis=1)
                taus = np.concatenate([taus, np.empty_like(taus)], axis=1)
            vals[:, made : made + P] = new
            taus[:, made : made + P] = ends
            made += P
            worst = vals[:, :made, 1].real.argmax(axis=1)
            bisected = vals[every, worst]
            vals[every, worst, 1] = -np.inf
            # (x0, x1) -> (x0, mid), (mid, x1)
            ends = taus[every, worst].repeat(2, axis=1)
            ends[:, 1:3] = 0.5 * (ends[:, :1] + ends[:, 3:])
            ends = ends.reshape(-1, 2, 2)
    limit = min(failed, default=K)
    # the halves of each point in chain order, each added as one walk adds
    # them: one after another onto 0, the total times its sign as Python
    # multiplies a float and a complex number
    n = rows[limit].start if limit < K else len(point)
    closed[:n, 0] *= signs[:n]
    sums = np.zeros((limit, 3), dtype=np.complex128)
    np.add.at(sums, point[:n], closed[:n])
    out = [IntegralEstimate(value, error.real, "adaptive-1d", int(panels.real))
           for value, error, panels in sums.tolist()]
    return out + [failed[limit][1]] if failed else out


# ----------------------------------------------------------------------
# stacks: the r = 1 point of a call, or the stencil points of a check
# ----------------------------------------------------------------------

def _point_key(z: CoordMatrix):
    """A point by value: its partition, r and entries."""
    return z.lam, z.r, z.entries.shape, z.entries.tobytes()


class _Scope:
    """The points a check registered: the first of each value by key, in
    stencil order, and every registered object by its id, with its key;
    the outcome of each stack run so far by (weight, chain, tolerance),
    and the last run as (weight, chain, tolerance, outcomes)."""

    __slots__ = ("points", "ids", "stacks", "last")

    def __init__(self, points, ids):
        self.points, self.ids, self.stacks, self.last = points, ids, {}, None


_SCOPE = contextvars.ContextVar("radon_hgf_scope", default=None)


@contextlib.contextmanager
def _mesh_scope(points):
    """Register the points at which a check will call F, in stencil order,
    and yield their keys (``_point_key``), each taken once.

    F is opaque, so the check names its points before the first call.
    Inside the scope the first r = 1 ``radon_hgf`` call at a registered
    point integrates every registered point as one stack (``_stack``) for
    its weight, chain and tolerance, and the later calls at registered
    points with those are served from that stack; one with another weight,
    chain or tolerance runs its own stack. A call finds its point by
    identity, and an equal copy of a registered point by value. A scope
    entered inside another holds its own points until it exits."""
    keys = [_point_key(z) for z in points]
    registry = {}
    for key, z in zip(keys, points):
        registry.setdefault(key, z)
    # the scope holds every point, so that no other object takes its id
    ids = {id(z): (key, z) for key, z in zip(keys, points)}
    token = _SCOPE.set(_Scope(registry, ids))
    try:
        yield keys
    finally:
        _SCOPE.reset(token)


def _stack(points, pw: PartitionWeight, chain: ChainSpec, tol: float):
    """The outcome of each point, by key: its estimate or the error that
    ``radon_hgf`` raises for it. The points of pw's shape are one entries
    stack, whose membership in Z_lambda (``member_mask``), block roots and
    chain halves (``_place``) are each taken in array operations, and one
    ``_lockstep``, in which each point has the outcome of its lone run, bit
    for bit. A point that fails its checks (outside Z_lambda, a chain end
    at infinity, or a ray pair whose far end, the root of block 1, is its
    origin 0) is placed at stand-in roots; the first one's first half fails
    with the error it raises alone. A failing point closes every later
    point, which then has no outcome; too few blocks for the chain kind
    raise ``IncompatibleChain``."""
    points = [(key, z) for key, z in points.items()
              if z.lam == pw.lam and z.r == 1 and z.m == 2]
    if not points:
        return {}
    entries = np.array([z.entries for _, z in points])
    roots, infinite = _block_roots(pw.lam, entries)
    ends = _CHAIN_ENDS[chain.kind]
    bad = ~member_mask(pw.lam, 1, entries) | infinite[:, 1 : 1 + ends].any(axis=1)
    if not ends:
        # a ray pair runs from 0 out to the root of block 1, which must not be 0
        bad |= ~infinite[:, 0] & (roots[:, 0] == 0)
    # distinct finite roots, off the origin of a ray pair, so that a bad
    # point's halves can be placed; they are never evaluated
    roots[bad], infinite[bad] = range(1, 1 + roots.shape[1]), False
    place = _place(_roots_pieces(roots, infinite, pw, chain), tol, len(points))
    if bad.any():
        k = int(np.argmax(bad))
        try:
            require_member(points[k][1])
            exc = (IncompatibleChain(f"{chain.kind} chain ends escaped to infinity") if ends
                   else OnBranchLocus(f"the root of block 1 is at 0, where the {chain.kind} "
                                      "chain's rays both start and end"))
        except NotInZLambda as err:
            exc = err
        place.failures[place.rows[k][0]] = exc
    stacked = _lockstep(scalar_chart_function(entries, pw), place, tol)
    return dict(zip([key for key, _ in points], stacked))


def _stacked(z: CoordMatrix, pw: PartitionWeight, chain: ChainSpec, tol: float):
    """The outcome of z: from the active scope's stack for (pw, chain, tol),
    run at the first call that asks for it, when z is registered (the
    object itself, or a point equal to one) and that stack reached it;
    else from the stack of z alone. A call with the weight and chain
    objects and the tolerance of the scope's last run reuses its outcomes
    without looking the run up."""
    scope = _SCOPE.get()
    known = None if scope is None else scope.ids.get(id(z))
    key = _point_key(z) if known is None else known[0]
    if scope is not None and (known is not None or key in scope.points):
        last = scope.last
        if last is not None and last[0] is pw and last[1] is chain and last[2] == tol:
            outcomes = last[3]
        else:
            run = (pw, chain, tol)
            if run not in scope.stacks:
                scope.stacks[run] = _stack(scope.points, pw, chain, tol)
            outcomes = scope.stacks[run]
            scope.last = (pw, chain, tol, outcomes)
        found = outcomes.get(key)
        if found is not None:
            return found
    return _stack({key: z}, pw, chain, tol)[key]


def _require_tolerance(tol: float):
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def integrate_pieces(f, pieces, tol: float = 1e-10) -> IntegralEstimate:
    """Sum of piecewise adaptive integrals of a complex function f that maps
    a flat array of points to an array of values.

    Each piece splits into halves, each an adaptive GK15 integral that
    bisects its worst panel until its error is within max(atol, tol |total|)
    (QUADPACK's rule). The halves run in lock-step rounds (``_lockstep``, on
    a stack of one): in each round every open half bisects once, and the
    nodes of all new panels go to one call of f. A half that fails closes
    every later half; the first failure in chain order is raised, as a
    sequential walk would raise it. The tolerance must be positive and
    finite, and a chain of no pieces raises ``IncompatibleChain``.
    """
    _require_tolerance(tol)
    [out] = _lockstep(lambda u, which: f(u.ravel()), _place(pieces, tol), tol)
    if isinstance(out, RadonHGFError):
        raise out
    return out


# ----------------------------------------------------------------------
# chain kinds: pieces (r = 1) and eigenvalue weights
# ----------------------------------------------------------------------

# finite ends of each chain kind: the interval has two, the half line one
_CHAIN_ENDS = {INTERVAL: 2, HALF_LINE: 1, FULL_LINE: 0, ROTATED_RAY: 0}


def _chain_pieces(kind: str, ends, exponents, far=None, exp_far=None):
    """The pieces of a chain kind between its finite ends, with the weight
    exponents there: a segment, a ray, or a pair of rays through 0. Rays
    end at far (inf when None), where the weight exponent is exp_far."""
    if kind == INTERVAL:
        return [Segment(ends[0], ends[1], exponents[0], exponents[1])]
    if kind == HALF_LINE:
        return [Ray(ends[0], 0.0, exponents[0], far, exp_far)]
    if kind == FULL_LINE:
        return [RayPair(math.pi, 0.0, far, exp_far)]
    return [RayPair(-RAY_HALF_ANGLE, RAY_HALF_ANGLE, far, exp_far)]


def _chain_law(kind: str, exponents, r: int):
    """The eigenvalue weight of a chain kind for the registry exponents e
    (``integrands._log_weight`` at a matrix), as (rule, sample) of that one
    weight: rule(n) is its Gauss rule, the phase of the imaginary exponents
    folded into the weights; sample(gen, count) draws (count, r)
    eigenvalues from the density of its real part, with the mass m of each
    eigenvalue, the weight over that density (a constant when every
    exponent is real). The weight is u^p (1-u)^q on the
    interval (Jacobi rule, Beta(p + 1, q + 1) draws, m = B(p + 1, q + 1)),
    u^p exp(-rate u) on the half line (scaled Laguerre rule,
    Gamma(p + 1) / rate draws, m = Gamma(p + 1) rate^-(p + 1); unit rate
    when there is no e1) and exp(-u^2 / 2) on the full line (Hermite rule,
    normal draws, m = sqrt(2 pi)), with p, q = Re e - r. Refuses weights
    that are not integrable, among them a power |u|^(Re e0 - r) at 0 on
    the full line, and the rotated ray, which has none."""
    e = [complex(v) for v in exponents]
    if kind == INTERVAL:
        p, q = (v.real - r for v in e[:2])
        if p <= -1 or q <= -1:
            raise IncompatibleChain("interval weight u^p (1-u)^q needs p, q > -1")
        a_sh, b_sh = p + 1.0, q + 1.0
        mass = math.exp(math.lgamma(a_sh) + math.lgamma(b_sh) - math.lgamma(a_sh + b_sh))
        imaginary = e[0].imag or e[1].imag

        def phase(lam):
            return np.exp(1j * (e[0].imag * np.log(lam) + e[1].imag * np.log1p(-lam)))

        def rule(n):
            lam, w = jacobi_01(n, p, q)
            return lam, w * phase(lam)

        def sample(gen, count):
            lam = gen.beta(a_sh, b_sh, size=(count, r))
            return lam, mass * phase(lam) if imaginary else mass

    elif kind == HALF_LINE:
        p = e[0].real - r
        decay = e[1] if len(e) > 1 else 1.0 + 0.0j
        rate = decay.real
        if p <= -1:
            raise IncompatibleChain("half-line weight u^p exp(-rate u) needs p > -1")
        if rate <= 0:
            raise IncompatibleChain("half-line weight needs a positive decay rate")
        shape = p + 1.0
        mass = math.exp(math.lgamma(shape) - shape * math.log(rate))
        imaginary = e[0].imag or decay.imag

        def phase(lam):
            return np.exp(1j * (e[0].imag * np.log(lam) - decay.imag * lam))

        def rule(n):
            s_nodes, s_weights = genlaguerre(n, p)
            lam = s_nodes / rate
            w = s_weights * rate ** (-p - 1.0)
            return lam, w * phase(lam)

        def sample(gen, count):
            lam = gen.gamma(shape, size=(count, r)) / rate
            return lam, mass * phase(lam) if imaginary else mass

    elif kind == FULL_LINE:
        if e and e[0].real - r <= -1:
            raise IncompatibleChain("full-line weight |u|^p near 0 needs p > -1")
        mass = math.sqrt(2.0 * math.pi)

        def rule(n):
            return hermite_scaled(n)

        def sample(gen, count):
            return gen.standard_normal((count, r)), mass

    else:
        raise IncompatibleChain(f"no eigenvalue weight for the {kind} chain")
    return rule, sample


def _family_on(fam: NamedFamily, kind: str, r: int):
    """The registry entry of a family that integrates over the chain kind,
    whose X and every xs must be r x r."""
    entry = FAMILIES[fam.tag]
    if kind not in entry.chains:
        raise IncompatibleChain(f"{fam.tag} does not integrate over the {kind} chain")
    for m in (fam.X, *fam.xs):
        if m is not None and np.shape(m) != (r, r):
            raise ShapeMismatch(f"{fam.tag} needs {r} x {r} arguments, got shape {np.shape(m)}")
    return entry


def integrate_r1(fam: NamedFamily, chain: ChainSpec, tol: float = 1e-10) -> IntegralEstimate:
    """Adaptive scalar integration (r = 1) of a named family over its chain
    from 0 (and to 1 on the interval)."""
    if chain.r != 1:
        raise IncompatibleChain("integrate_r1 requires r = 1")
    e = _family_on(fam, chain.kind, 1).exponents(fam.params, fam.X)
    ends = _CHAIN_ENDS[chain.kind]
    pieces = _chain_pieces(chain.kind, (0.0, 1.0)[:ends], [v - 1 for v in e[:ends]])

    def f(u):
        return named_integrand_batch(fam, u.reshape(-1, 1, 1))

    return integrate_pieces(f, pieces, tol=tol)


# ----------------------------------------------------------------------
# eigenvalue-reduced tensor quadrature (invariant integrands)
# ----------------------------------------------------------------------

def _scalar_arguments(fam: NamedFamily):
    """(x, xs) when X and every xs of the family are scalar multiples of the
    identity, else None. For a family marked ``invariant`` in the registry,
    this is when the kernel is unitarily invariant."""
    x = 0.0 if fam.X is None else scalar_multiple(fam.X)
    xs = tuple(scalar_multiple(m) for m in fam.xs)
    if x is None or None in xs:
        return None
    return x, xs


def _eigen_rule(fam: NamedFamily, r: int):
    """n -> (nodes, weights) of the family's eigenvalue integral: the Gauss
    rule of its chain weight (``_chain_law``), the weights times the
    per-eigenvalue remainder phi."""
    entry = FAMILIES[fam.tag]
    if not entry.invariant:
        raise IncompatibleChain(
            f"{fam.tag} has no positive eigenvalue weight; eigen-tensor "
            "unsupported (use haar-mc, experimental)"
        )
    _family_on(fam, entry.chains[0], r)
    args = _scalar_arguments(fam)
    if args is None:
        raise NotInvariant("matrix argument breaks unitary invariance")
    x, xs = args
    rule, _ = _chain_law(entry.chains[0], entry.exponents(fam.params, fam.X), r)

    def build(n):
        lam, w = rule(n)
        return lam, w * entry.phi(fam.params, lam, x, xs)

    return build


def integrate_invariant(fam: NamedFamily, r: int, nodes: int = 64) -> IntegralEstimate:
    """Deterministic eigenvalue-reduced quadrature for invariant integrands.

    The error estimate is the difference from the rule with half as many
    nodes (at least r), so ``nodes`` must exceed both, plus a rounding term
    r n eps c_r (sum of the absolute terms) from the fine rule's sum. A
    value or error bar that is not finite raises ``NonConvergent``, with no
    numpy warning on the way."""
    _require_rank(r)
    coarse_nodes = max(r, nodes // 2)
    if coarse_nodes >= nodes:
        raise UnsupportedCount(
            f"eigen-tensor needs more nodes than max(r, nodes // 2) = {coarse_nodes}, got {nodes}"
        )
    build = _eigen_rule(fam, r)
    cr = weyl_constant(r)
    with np.errstate(over="ignore", invalid="ignore"):
        lam, wg = build(coarse_nodes)
        coarse = cr * tensor_vdm_sum(wg, lam, r)[0]
        lam, wg = build(nodes)
        fine, absolute = tensor_vdm_sum(wg, lam, r)
    fine = cr * fine
    try:
        bar = abs(fine - coarse) + r * nodes * math.ulp(1.0) * cr * absolute
    except OverflowError:  # |fine - coarse| passes the float range, or is NaN
        bar = math.inf
    return _finite(IntegralEstimate(fine, bar, "eigen-tensor", nodes + coarse_nodes))


# ----------------------------------------------------------------------
# Haar Monte Carlo
# ----------------------------------------------------------------------

_MC_PARTS = 16
_MC_CHUNK = 1 << 15


def _require_samples(samples: int):
    if samples < 2:
        # one sample has no spread to estimate an error from
        raise UnsupportedCount(f"Monte Carlo needs at least two samples, got {samples}")


def _monte_carlo(chain: ChainSpec, e, samples: int, stream: RandomStream,
                 phi=None, over=None) -> IntegralEstimate:
    """Monte Carlo over U = V diag(lam) V^* with V Haar and lam drawn from
    the law of the chain weight w of exponents e (``_chain_law``), for
    samples >= 2. Every draw contributes c_r Delta(lam)^2 prod_i m(lam_i) R,
    m being w over its draw density and R the integrand over
    prod_i w(lam_i): prod_i phi(lam_i) given ``phi``, with no V drawn, else
    over(U). V is drawn as a full r x r Gaussian matrix per sample of which
    only the first r - 1 columns are orthonormalized: with V V^* = 1 they
    fix U. A substream draws its chunks one after another, so above
    16 * 2^15 samples the two paths draw different later eigenvalues. The
    substreams are counter-jumped and reduced in order, so the estimate is
    bit-identical for a (seed, samples) at any thread count. A value or
    error bar that is not finite raises ``NonConvergent``, with no numpy
    warning on the way."""
    r = chain.r
    _, sample = _chain_law(chain.kind, e, r)
    cr = weyl_constant(r)
    part_sizes = [samples // _MC_PARTS] * _MC_PARTS
    part_sizes[-1] += samples - sum(part_sizes)

    def run_part(idx):
        gen = stream.jump(idx + 1).generator()
        remaining = part_sizes[idx]
        acc = 0.0 + 0.0j
        acc2 = 0.0
        # in each thread, as numpy's error state is per thread
        with np.errstate(over="ignore", invalid="ignore"):
            while remaining > 0:
                count = min(remaining, _MC_CHUNK)
                remaining -= count
                lam, m = sample(gen, count)
                contrib = cr * vdm_sq_batch(lam)
                if phi is not None:
                    m = m * phi(lam)
                else:
                    gin = (gen.standard_normal((count, r, r))
                           + 1j * gen.standard_normal((count, r, r))) / math.sqrt(2.0)
                    # U needs the first r - 1 columns of V only; the last
                    # column of gin is drawn all the same, so the stream does
                    # not move. Each (count, r, r) array is dropped after its
                    # last use
                    u = conjugate_diag(haar_from_gaussian(gin[:, :, : r - 1]), lam)
                    del gin
                    contrib = contrib * over(u)
                    del u
                    m = np.broadcast_to(m, lam.shape)
                # column by column: numpy's prod over a short axis is slow
                for i in range(r):
                    contrib = contrib * m[:, i]
                acc += complex(np.sum(contrib))
                acc2 += float(np.sum(np.abs(contrib) ** 2))
        return acc, acc2

    threads = thread_count()
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(threads, _MC_PARTS)) as pool:
            results = list(pool.map(run_part, range(_MC_PARTS)))
    else:
        results = [run_part(idx) for idx in range(_MC_PARTS)]

    total = sum((res[0] for res in results), start=0.0 + 0.0j)
    total2 = sum(res[1] for res in results)
    mean = total / samples
    try:
        var = max(total2 / samples - abs(mean) ** 2, 0.0)
    except OverflowError:  # |mean|^2 passes the float range, and so does the spread
        var = math.inf
    sem = math.sqrt(var / (samples - 1))
    return _finite(IntegralEstimate(mean, sem, "haar-mc", samples, seed=stream.seed))


def integrate_haar_mc(fam: NamedFamily, chain: ChainSpec, samples: int,
                      stream: RandomStream) -> IntegralEstimate:
    """Monte Carlo (``_monte_carlo``) of a named family over one of its
    chains. A unitarily invariant kernel (a family marked ``invariant``, at
    scalar arguments) is by Weyl's integration formula the integral that
    ``_eigen_rule`` integrates, and draws the eigenvalues only; any other
    takes the Haar path with the kernel over the chain's weight
    (``named_integrand_batch`` with ``over``). Fewer than two samples raise
    ``UnsupportedCount`` before any other check."""
    _require_samples(samples)
    entry = _family_on(fam, chain.kind, chain.r)
    scalars = _scalar_arguments(fam) if entry.invariant else None
    e = entry.exponents(fam.params, fam.X)
    if scalars is not None:
        return _monte_carlo(chain, e, samples, stream,
                            phi=lambda lam: entry.phi(fam.params, lam, *scalars))
    return _monte_carlo(chain, e, samples, stream,
                        over=lambda u: named_integrand_batch(fam, u, over=chain.kind))


def integrate_family(fam: NamedFamily, chain: ChainSpec, budget: Budget = Budget(),
                     method: str = "auto") -> IntegralEstimate:
    """A named family's integral over one of its chains: "adaptive-1d"
    (``integrate_r1`` at budget.tol), "eigen-tensor" (``integrate_invariant``
    at budget.nodes, over the default chain only), "haar-mc"
    (``integrate_haar_mc``) or "auto": adaptive-1d at r = 1, else
    eigen-tensor, and haar-mc where that raises. Eigen-tensor raises every
    refusal as ``IncompatibleChain``, a matrix argument's ``NotInvariant``
    too; another method raises ``ValueError``."""
    if method == "auto" and chain.r >= 2:
        try:
            return integrate_family(fam, chain, budget, "eigen-tensor")
        except IncompatibleChain:
            method = "haar-mc"
    if method in ("auto", "adaptive-1d"):
        return integrate_r1(fam, chain, tol=budget.tol)
    if method == "eigen-tensor":
        default = FAMILIES[fam.tag].chains[0]
        if chain.kind != default:
            raise IncompatibleChain(f"eigen-tensor {fam.tag} integrates over the {default} chain")
        try:
            return integrate_invariant(fam, chain.r, nodes=budget.nodes)
        except NotInvariant as exc:
            raise IncompatibleChain(str(exc)) from exc
    if method == "haar-mc":
        return integrate_haar_mc(fam, chain, budget.samples, budget.stream)
    raise ValueError(f"method must be auto, adaptive-1d, eigen-tensor or haar-mc, got {method!r}")


# ----------------------------------------------------------------------
# Grassmannian integrals
# ----------------------------------------------------------------------

def scalar_chart_function(entries, pw: PartitionWeight):
    """The r = 1 chart integrand u -> chi(ubar z) of a stack of points z
    with the (K, 2, N) ``entries``: ``chart_exponent`` at the frames (1, u),
    as f(u, which), where u holds (rows, nodes) and which labels each row
    with the point whose coefficients its nodes take. A point on a block
    root, or whose exponent passes 700, raises ``OnBranchLocus`` before any
    exponential is taken."""
    exponent = chart_exponent(pw, entries)

    def f(u, which):
        try:
            expo = exponent((1.0, u), which)
        except SingularBlock as exc:
            raise OnBranchLocus("chart point sits on a branch hypersurface") from exc
        if (expo.real > 700.0).any():
            raise OnBranchLocus("exponential part overflows: chain runs into a pole")
        return np.exp(expo).reshape(u.shape)

    return f


# Python's complex division as a ufunc over object arrays
_QUOTIENT = np.frompyfunc(operator.truediv, 2, 1)


def _block_roots(lam: tuple, entries: np.ndarray):
    """The root -a0 / b0 of each block's leading form a0 + b0 u, for each
    matrix of a (K, 2, N) entries stack at r = 1, as (roots, infinite):
    (K, blocks) arrays of the roots, as Python complex numbers, and of
    whether each is at infinity, where |b0| <= 1e-13 |(a0, b0)|, a test
    that does not depend on the column's scale. The quotients are one ufunc
    call of Python's complex division, whose last bit differs from numpy's
    on about 40% of inputs, so a root is the same alone, in a stack and as
    -a0 / b0 on Python complex numbers; a root at infinity divides by 1."""
    # the column of each block's leading form
    c = np.take(entries, list(accumulate((0,) + lam[:-1])), axis=2)
    mag = np.abs(c)
    infinite = mag[:, 1] <= 1e-13 * np.hypot(mag[:, 0], mag[:, 1])
    return _QUOTIENT(-c[:, 0], np.where(infinite, 1.0, c[:, 1])), infinite


def _roots_pieces(roots, infinite, pw: PartitionWeight, chain: ChainSpec):
    """The chain pieces of the points of a stack, from their block roots and
    whether each is at infinity (``_block_roots``), with (K,) arrays for
    numbers (``_place``). The ends are the roots of blocks 2 (and 3), with
    those blocks' leading weights as the end exponents; rays end at the
    root of block 1, which the table form puts at inf, with the leading
    weight of block 1 as the exponent there when the block's character is
    a pure power (else it has an essential singularity). ``_stack``
    refuses an end at infinity; too few blocks raise ``IncompatibleChain``."""
    ends = _CHAIN_ENDS[chain.kind]
    if roots.shape[1] < 1 + ends:
        raise IncompatibleChain(f"{chain.kind} chains need at least {1 + ends} blocks")
    first = pw.alpha[0]
    exp_far = first[0] if all(a == 0 for a in first[1:]) else None
    return _chain_pieces(chain.kind, [roots[:, j] for j in range(1, 1 + ends)],
                         [pw.alpha[j][0] for j in range(1, 1 + ends)],
                         np.where(infinite[:, 0], None, roots[:, 0]), exp_far)


def radon_hgf(z: CoordMatrix, pw: PartitionWeight, chain: ChainSpec,
              budget: Budget = Budget(), method: str = "auto") -> IntegralEstimate:
    """Evaluate the Grassmannian integral over a concrete chain.

    r = 1 uses root-following adaptive quadrature under every method. An
    r = 1 call integrates a stack (``_stack``): of z alone, or inside a
    mesh scope (``_mesh_scope``) of all registered points, and returns z's
    outcome from it. At r >= 2 a variant-1 table form is tested for
    membership in Z_lambda; another point is reduced to its table form
    nf = g z h by ``reduce_orbit``, which tests z and nf (a partition with
    no reducer raises ``UnsupportedPartition`` first). The one estimate at
    nf is mapped back by F(z) = det(g)^r chi(h)^-1 F(nf), its error bar with
    it; chi is taken on the principal branch. Where nf's named family
    (``family_of_normal_form``) integrates over the chain, F(nf) is its
    ``integrate_family`` estimate; elsewhere "auto" and "haar-mc" run Monte
    Carlo of the chart integrand at nf, at the stand-in law of the chain
    weight of exponents (1 + r, 1) on the half line, else (1 + r, 1 + r).
    "eigen-tensor" raises every refusal as ``IncompatibleChain``; another
    method raises ``ValueError`` first.
    """
    if method not in ("auto", "eigen-tensor", "haar-mc"):
        raise ValueError(f"method must be auto, eigen-tensor or haar-mc, got {method!r}")
    if z.lam != pw.lam or z.r != pw.r:
        raise ShapeMismatch("coordinate matrix and weight partition disagree")
    if chain.r != z.r:
        raise ShapeMismatch(f"chain of size r = {chain.r} for a coordinate matrix of r = {z.r}")
    r = z.r
    if r == 1:
        if z.m != 2:
            raise ShapeMismatch("chart integrands are defined for m = 2r")
        _require_tolerance(budget.tol)
        if len(z.lam) <= _CHAIN_ENDS[chain.kind]:
            # a point outside Z_lambda says so before its chain needs more blocks
            require_member(z)
        found = _stacked(z, pw, chain, budget.tol)
        if isinstance(found, RadonHGFError):
            raise found
        return found
    xs = residual_parameters(z)
    if xs is None:
        # reduce_orbit tests the membership of z and of its table form
        red = reduce_orbit(z)
        xs, nf = red.x, CoordMatrix(z.lam, r, pattern(z.lam, r, red.x))
    else:
        require_member(z)
        red, nf = None, z
    try:
        fam = family_of_normal_form(z.lam, xs, pw.flat_alpha(), r)
        _family_on(fam, chain.kind, r)
    except (IncompatibleChain, UnpinnedAlpha, UnsupportedPartition) as exc:
        if method == "eigen-tensor":
            raise IncompatibleChain(str(exc)) from exc
        fam = None
    if fam is not None:
        est = integrate_family(fam, chain, budget, method)
    else:
        _require_samples(budget.samples)
        e = (1.0 + r, 1.0) if chain.kind == HALF_LINE else (1.0 + r, 1.0 + r)
        exponent = chart_exponent(pw, nf.entries)
        eye = np.eye(r, dtype=np.complex128)

        def over(u):
            frames = np.concatenate([np.broadcast_to(eye, u.shape), u], axis=2)
            return np.exp(exponent(frames) - _log_weight(chain.kind, e, u, r))

        est = _monte_carlo(chain, e, budget.samples, budget.stream, over=over)
    if red is None:
        return est
    factor = det(red.g) ** r / chi_lambda(red.h, pw)
    return replace(est, value=est.value * factor,
                   abs_error_est=float(est.abs_error_est * abs(factor)))
