"""Finite-difference verification of the annihilating differential system.

The order-(r+1) operators are determinants of entry derivatives of the
coordinate matrix: expanding the determinant gives (r+1)! signed mixed
partials, each over r+1 distinct entries, computed here by nested
central differences with per-entry step scaling and optional Richardson
extrapolation.  Zero tests are always relative to the largest single
determinant term, so conditioning is visible in every report.

``apply_DIJ``, ``verify_system`` and the two infinitesimal checks build
all their stencil points first and register them in a mesh scope of
``integrate`` before F is first called; F then runs once per distinct
point, in stencil order. The determinant stencils of all pairs and steps
are one (K, m, N) entries array, z0's entries with each corner's own
entries moved, and their coordinate matrices are checked in one pass
(``CoordMatrix.stack``); the first corner that fails raises what it
raises alone, before any F call. Every r = 1 ``radon_hgf`` call
integrates a stack of points; F is opaque, so the registration is what
makes that stack every registered point instead of one, integrated at
the first call inside F and serving the later ones. Each point keeps its
own panels, so a value is the same in either stack, bit for bit.
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
from .integrate import _mesh_scope, _point_key
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
    """The permutations of range(k) as a (k!, k) array with their signs,
    and the 2^k corners of a mixed partial over k entries: per corner and
    entry q the sign of its step, + where bit q of the corner is set, as a
    (2^k, k) array, and per corner its sign, - once per step down."""
    perms = list(permutations(range(k)))
    corners = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    return (np.array(perms), [_perm_sign(p) for p in perms], 2.0 * corners - 1.0,
            [(-1.0) ** (k - int(c.sum())) for c in corners])


def _determinant_stencil(z0: CoordMatrix, pair: MultiIndexPair, steps):
    """The corners of the determinant expansion of one pair, in stencil
    order (step, permutation, corner), each moving k entries of z0 by
    +-h (1 + |z0 entry|): as (rows, cols, deltas), each of shape
    (corners, k), and the terms, per step and permutation its sign, its
    central-difference denominator and the sign of each of its corners."""
    perms, signs, pm, corner_signs = _expansion(pair.order)
    k = pair.order
    rows = np.array(pair.I)[perms] - 1
    cols = np.broadcast_to(np.array(pair.J) - 1, rows.shape)
    # (steps, k!, k): the step of entry q under each permutation
    step = np.multiply.outer(np.array(steps), 1.0 + np.abs(z0.entries[rows, cols]))
    denom = np.ones(step.shape[:2])
    for q in range(k):
        denom = denom * (2.0 * step[..., q])
    deltas = step[:, :, None, :] * pm
    shape = deltas.shape
    terms = [list(zip(signs, d, [corner_signs] * len(signs))) for d in denom.tolist()]
    return (np.broadcast_to(rows[None, :, None], shape).reshape(-1, k),
            np.broadcast_to(cols[None, :, None], shape).reshape(-1, k),
            deltas.reshape(-1, k), terms)


def _stencil_points(z0: CoordMatrix, stencils):
    """The corners of stencils (``_determinant_stencil``), in stencil order,
    as one checked stack of coordinate matrices (``CoordMatrix.stack``):
    each is z0's entries with its own entries moved."""
    total = sum(len(rows) for rows, *_ in stencils)
    corners = np.repeat(z0.entries[None], total, axis=0)
    start = 0
    for rows, cols, deltas, _ in stencils:
        at = np.arange(start, start + len(rows))[:, None]
        # only the moved entries are written, so the others keep their bits
        corners[at, rows, cols] += deltas
        start += len(rows)
    return CoordMatrix.stack(z0.lam, z0.r, corners)


def _determinant_terms(terms, values):
    """Signed mixed partials of the determinant expansion at one step, each
    term taking the values of its corners from the iterator ``values``."""
    out = []
    for sign, denom, corner_signs in terms:
        acc = 0.0 + 0.0j
        for s in corner_signs:
            acc += s * next(values)
        out.append(sign * acc / denom)
    return out


def _evaluate(F, points):
    """F at each point, registered in one mesh scope before the first call;
    F runs once per distinct point, in order. Returns the values and the
    number of distinct points."""
    seen = {}
    values = []
    with _mesh_scope(points):
        for z in points:
            key = _point_key(z)
            if key not in seen:
                seen[key] = F(z)
            values.append(seen[key])
    return values, len(seen)


def _operators(F, z0: CoordMatrix, pairs, plan):
    """(residual, scale) of each pair, from one evaluation of F over the
    stencils of all of them, and the number of distinct points. The points
    are built and checked as one stack before F is first called. A point
    on the branch locus or outside Z_lambda raises
    ``StencilCrossesBranchLocus``, for the first such point in stencil
    order."""
    for pair in pairs:
        _require_pair(z0, pair)
    steps = (plan.h, plan.h / 2.0) if plan.richardson else (plan.h,)
    stencils = [_determinant_stencil(z0, pair, steps) for pair in pairs]
    points = _stencil_points(z0, stencils)
    try:
        values, distinct = _evaluate(F, points)
    except (OnBranchLocus, NotInZLambda) as exc:
        raise StencilCrossesBranchLocus(str(exc)) from exc
    values = iter(values)
    out = []
    for *_, per_step in stencils:
        terms = [_determinant_terms(terms, values) for terms in per_step]
        if plan.richardson:
            terms = [(4.0 * t2 - t1) / 3.0 for t1, t2 in zip(*terms)]
        else:
            [terms] = terms
        out.append((complex(sum(terms)), float(max(abs(t) for t in terms))))
    return out, distinct


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        q = start
        while not seen[q]:
            seen[q] = True
            q = perm[q]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def apply_DIJ(F, z0: CoordMatrix, pair: MultiIndexPair,
              plan: StencilPlan = StencilPlan()):
    """(residual, scale): determinant-operator value and the magnitude of
    its largest single term (the conditioning reference for zero tests)."""
    [out], _ = _operators(F, z0, [pair], plan)
    return out


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
        rel = abs(residual) / max(scale, 1e-300)
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
        return abs(self.residual) / max(self.reference, 1e-300)


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


def check_h_infinitesimal(F, z0: CoordMatrix, direction: LieDirection,
                          pw: PartitionWeight, eps: float = 1e-3) -> InfinitesimalResult:
    """d/de F(z exp(e E)) at 0 minus dchi(E) F(z)."""
    _require_step(eps)

    def element(t: float) -> GroupElement:
        blocks = []
        for eb in direction.blocks:
            coeffs = [t * np.asarray(c, dtype=np.complex128) for c in eb]
            blocks.append(ring_exp(TruncPoly.from_list(coeffs)))
        return GroupElement(tuple(blocks))

    dchi = dchi_lambda(direction, pw)
    points = [z0] + [apply_group(z0, h=element(t)) for t in _central_steps(eps)]
    (f0, *values), _ = _evaluate(F, points)
    residual = _central(values, eps) - dchi * f0
    reference = abs(f0) * (1.0 + abs(dchi))
    return InfinitesimalResult(complex(residual), float(reference))


def check_gl_infinitesimal(F, z0: CoordMatrix, E, eps: float = 1e-3) -> InfinitesimalResult:
    """d/de F(exp(e E) z) at 0 plus r Tr(E) F(z)."""
    _require_step(eps)
    E = np.asarray(E, dtype=np.complex128)
    if E.shape != (z0.m, z0.m):
        raise BadIndexSet("direction must act on the row space")
    points = [z0] + [apply_group(z0, g=scipy.linalg.expm(t * E)) for t in _central_steps(eps)]
    (f0, *values), _ = _evaluate(F, points)
    residual = _central(values, eps) + z0.r * np.trace(E) * f0
    reference = abs(f0) * (1.0 + z0.r * abs(np.trace(E)))
    return InfinitesimalResult(complex(residual), float(reference))
