"""Finite-difference verification of the annihilating differential system.

The order-(r+1) operators are determinants of entry derivatives of the
coordinate matrix: expanding the determinant gives (r+1)! signed mixed
partials, each over r+1 distinct entries, computed here by nested
central differences with per-entry step scaling and optional Richardson
extrapolation.  Zero tests are always relative to the largest single
determinant term, so conditioning is visible in every report.

The stencils of a check are arrays, built for all its pairs in one pass
(the pairs share the order k = r + 1): the entries each corner moves, in
(pair, step, permutation, corner) order, and the (pairs, steps, k!)
denominators of their terms. The terms come from F's values reshaped to
(pairs, steps, k!, 2^k): the corners added one after another with their
signs, times the sign of the permutation (its inversion parity), over
the denominator.

One stencil evaluation (``_operators``) serves every determinant check:
``verify_system`` runs it over all pairs of a base point, as criterion 11
and ``verify-pde`` do, and ``apply_DIJ`` over one pair. The two
infinitesimal checks are one body (``_infinitesimal``) with the group
side's move and rate. Each builds all its stencil points first and
registers them in a mesh scope of ``integrate`` before F is first
called; F then runs once per distinct point, in stencil order, each
point keyed once by the scope. The determinant stencils of all pairs
and steps are one (K, m, N) entries array, z0's entries with each
corner's own entries moved, and their coordinate matrices are checked in
one pass (``CoordMatrix.stack``); the first corner that fails raises
what it raises alone, before any F call.
Every r = 1 ``radon_hgf`` call integrates a stack of points; F is
opaque, so the registration is what makes that stack every registered
point instead of one, integrated at the first call inside F and serving
the later ones. Each point keeps its own panels, so a value is the same
in either stack, bit for bit.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
import scipy.linalg

from .characters import GroupElement, LieDirection, PartitionWeight, dchi_lambda
from .errors import (
    BadIndexSet,
    NotInZLambda,
    OnBranchLocus,
    StencilCrossesBranchLocus,
)
from .grassmann import CoordMatrix, apply_group
from .integrate import _mesh_scope
from .jordan import TruncPoly, ring_exp


@dataclass(frozen=True)
class MultiIndexPair:
    """Row set I in [1, m] and column set J in [1, N], both of size r+1."""

    I: tuple
    J: tuple

    def __post_init__(self):
        I = tuple(int(i) for i in self.I)
        J = tuple(int(j) for j in self.J)
        object.__setattr__(self, "I", I)
        object.__setattr__(self, "J", J)
        if len(I) != len(J) or len(I) < 2:
            raise BadIndexSet("index sets must share a cardinality >= 2")
        for idx in (I, J):
            if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
                raise BadIndexSet("index sets must be strictly increasing")
        if I[0] < 1 or J[0] < 1:
            raise BadIndexSet("indices are 1-based")

    @property
    def order(self) -> int:
        return len(self.I)


def all_pairs(m: int, N: int, r: int):
    """Every (I, J) with |I| = |J| = r + 1."""
    return [
        MultiIndexPair(I, J)
        for I in combinations(range(1, m + 1), r + 1)
        for J in combinations(range(1, N + 1), r + 1)
    ]


def _require_step(h):
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step must be positive and finite, got {h}")


@dataclass(frozen=True)
class StencilPlan:
    h: float = 1e-3
    richardson: bool = True

    def __post_init__(self):
        _require_step(self.h)


def _require_pair(z0: CoordMatrix, pair: MultiIndexPair):
    if pair.I[-1] > z0.m or pair.J[-1] > z0.N:
        raise BadIndexSet(
            f"pair I = {pair.I}, J = {pair.J} exceeds the {z0.m} x {z0.N} coordinate matrix"
        )


@lru_cache(maxsize=None)
def _expansion(k: int):
    """The permutations of range(k) as a (k!, k) array with their signs, by
    inversion parity, and the 2^k corners of a mixed partial over k
    entries: per corner and entry q the sign of its step, + where bit q of
    the corner is set, as a (2^k, k) array, and per corner its sign, -
    once per step down."""
    perms = np.array(list(permutations(range(k))))
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    pm = 2.0 * ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1) - 1.0
    return perms, 1.0 - 2.0 * (inversions % 2), pm, pm.prod(axis=1)


def _determinant_stencil(z0: CoordMatrix, pairs, steps):
    """The corners of the determinant expansions of pairs of one order k,
    in stencil order (pair, step, permutation, corner), each moving k
    entries of z0 by +-h (1 + |z0 entry|): as (rows, cols, deltas), each
    of shape (corners, k), and the (pairs, steps, k!) central-difference
    denominators of their terms, all pairs in one pass."""
    perms, _, pm, _ = _expansion(pairs[0].order)
    # (pairs, k!, k): the row and column of entry q under each permutation
    rows = (np.array([pair.I for pair in pairs]) - 1)[:, perms]
    cols = np.broadcast_to((np.array([pair.J for pair in pairs]) - 1)[:, None], rows.shape)
    # (pairs, steps, k!, k): the step of each such entry
    step = np.array(steps)[:, None, None] * (1.0 + np.abs(z0.entries[rows, cols]))[:, None]
    deltas = step[..., None, :] * pm
    shape, k = deltas.shape, rows.shape[-1]
    return ((np.broadcast_to(rows[:, None, :, None], shape).reshape(-1, k),
             np.broadcast_to(cols[:, None, :, None], shape).reshape(-1, k),
             deltas.reshape(-1, k)), (2.0 * step).prod(axis=-1))


def _stencil_points(z0: CoordMatrix, move):
    """The corners of the (rows, cols, deltas) ``move`` of a stencil
    (``_determinant_stencil``), in stencil order, as one checked stack of
    coordinate matrices (``CoordMatrix.stack``): each is z0's entries with
    its own entries moved."""
    rows, cols, deltas = move
    corners = np.repeat(z0.entries[None], len(rows), axis=0)
    # only the moved entries are written, so the others keep their bits
    corners[np.arange(len(rows))[:, None], rows, cols] += deltas
    return CoordMatrix.stack(z0.lam, z0.r, corners)


def _evaluate(F, points):
    """F at each point, registered in one mesh scope before the first call;
    F runs once per distinct point, in order. Returns the values and the
    number of distinct points."""
    seen = {}
    with _mesh_scope(points) as keys:
        for z, key in zip(points, keys):
            if key not in seen:
                seen[key] = F(z)
    return [seen[key] for key in keys], len(seen)


def _operators(F, z0: CoordMatrix, pairs, plan):
    """(residual, scale) of each pair, from one evaluation of F over the
    stencils of all of them, and the number of distinct points. The pairs
    must share an order k, else ``BadIndexSet``. The points are built and
    checked as one stack before F is first called. A point on the branch
    locus or outside Z_lambda raises ``StencilCrossesBranchLocus``, for
    the first such point in stencil order. Each term of a pair is the
    signed sum of F over its corners, times the sign of its permutation,
    over its denominator; F's values are one (pairs, steps, k!, 2^k)
    array."""
    for pair in pairs:
        _require_pair(z0, pair)
    if len({pair.order for pair in pairs}) > 1:
        raise BadIndexSet("the pairs of one check must share an order")
    steps = (plan.h, plan.h / 2.0) if plan.richardson else (plan.h,)
    move, denom = _determinant_stencil(z0, pairs, steps)
    points = _stencil_points(z0, move)
    try:
        values, distinct = _evaluate(F, points)
    except (OnBranchLocus, NotInZLambda) as exc:
        raise StencilCrossesBranchLocus(str(exc)) from exc
    _, signs, _, corner_signs = _expansion(pairs[0].order)
    at = np.asarray(values, dtype=np.complex128).reshape(*denom.shape, -1)
    # the corners are added one after another: a term is a small
    # difference of large values, whose rounding depends on the order
    terms = signs * sum(np.moveaxis(at * corner_signs, -1, 0)) / denom
    terms = (4.0 * terms[:, 1] - terms[:, 0]) / 3.0 if plan.richardson else terms[:, 0]
    return list(zip(terms.sum(axis=-1).tolist(), np.abs(terms).max(axis=-1).tolist())), distinct


def apply_DIJ(F, z0: CoordMatrix, pair: MultiIndexPair,
              plan: StencilPlan = StencilPlan()):
    """(residual, scale): determinant-operator value and the magnitude of
    its largest single term (the conditioning reference for zero tests)."""
    [out], _ = _operators(F, z0, [pair], plan)
    return out


def _modulus(z: complex) -> float:
    """|z|, NaN for a NaN part: the builtin abs() of a complex NaN can
    report a stale overflow from an earlier C call."""
    return math.hypot(z.real, z.imag)


def verify_system(F, z0: CoordMatrix, pairs, plan: StencilPlan = StencilPlan(),
                  rel_tol: float = 1e-4):
    """Run every pair; report per-pair residual/scale, the number of
    distinct points at which F ran ("points") and an overall verdict. The
    stencils of all pairs are evaluated together, so F runs once per
    distinct point of the whole check. No pairs raise ``BadIndexSet``: a
    check of nothing does not pass."""
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    pairs = list(pairs)
    if not pairs:
        raise BadIndexSet("verify_system needs at least one pair")
    operators, points = _operators(F, z0, pairs, plan)
    rows = []
    for pair, (residual, scale) in zip(pairs, operators):
        rel = _modulus(residual) / max(scale, 1e-300)
        rows.append({
            "I": list(pair.I),
            "J": list(pair.J),
            "residual": [residual.real, residual.imag],
            "scale": scale,
            "relative": rel,
            "pass": bool(rel < rel_tol),
        })
    return {"pairs": rows, "points": points, "pass": all(row["pass"] for row in rows)}


@dataclass(frozen=True)
class InfinitesimalResult:
    residual: complex
    reference: float

    @property
    def relative(self) -> float:
        return _modulus(self.residual) / max(self.reference, 1e-300)


def _central_steps(eps: float):
    """The steps at which ``_central`` reads fn, in the order it reads them."""
    return (eps / 2.0, -(eps / 2.0), eps, -eps)


def _central(values, eps: float) -> complex:
    """Richardson-extrapolated central difference at 0 of fn, from its
    values at ``_central_steps(eps)``."""
    plus2, minus2, plus, minus = values

    def d(fp, fm, step):
        return (fp - fm) / (2.0 * step)

    return (4.0 * d(plus2, minus2, eps / 2.0) - d(plus, minus, eps)) / 3.0


def _infinitesimal(F, z0: CoordMatrix, move, rate, spread, eps: float) -> InfinitesimalResult:
    """d/de F(move(e)) at 0 minus rate F(z0), against the reference
    |F(z0)| (1 + spread); F runs at z0 and then at ``_central_steps``."""
    _require_step(eps)
    points = [z0] + [move(t) for t in _central_steps(eps)]
    (f0, *values), _ = _evaluate(F, points)
    residual = _central(values, eps) - rate * f0
    return InfinitesimalResult(complex(residual), float(_modulus(complex(f0)) * (1.0 + spread)))


def check_h_infinitesimal(F, z0: CoordMatrix, direction: LieDirection,
                          pw: PartitionWeight, eps: float = 1e-3) -> InfinitesimalResult:
    """d/de F(z exp(e E)) at 0 minus dchi(E) F(z)."""
    def element(t: float) -> GroupElement:
        return GroupElement(tuple(
            ring_exp(TruncPoly.from_list([t * np.asarray(c, dtype=np.complex128) for c in eb]))
            for eb in direction.blocks))

    dchi = dchi_lambda(direction, pw)
    return _infinitesimal(F, z0, lambda t: apply_group(z0, h=element(t)), dchi, abs(dchi), eps)


def check_gl_infinitesimal(F, z0: CoordMatrix, E, eps: float = 1e-3) -> InfinitesimalResult:
    """d/de F(exp(e E) z) at 0 plus r Tr(E) F(z)."""
    E = np.asarray(E, dtype=np.complex128)
    if E.shape != (z0.m, z0.m):
        raise BadIndexSet("direction must act on the row space")
    trace = np.trace(E)
    return _infinitesimal(F, z0, lambda t: apply_group(z0, g=scipy.linalg.expm(t * E)),
                          -(z0.r * trace), z0.r * abs(trace), eps)
