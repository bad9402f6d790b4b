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
point, in stencil order. F is opaque, so the registration is what lets
the first r = 1 ``radon_hgf`` call inside F integrate every registered
point as one stack, over panels that the points share, and serve the
later calls from it. A value meets the same tolerance as outside the
scope, and equals the unscoped one where the point gets the panels it
would reach alone. A plain ``radon_hgf`` call never enters a scope.
"""

import math
from dataclasses import dataclass
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


def _perturbed(z: CoordMatrix, deltas) -> CoordMatrix:
    e = z.entries.copy()
    for (i, j), d in deltas:
        e[i, j] += d
    return z.with_entries(e)


def _require_pair(z0: CoordMatrix, pair: MultiIndexPair):
    if pair.I[-1] > z0.m or pair.J[-1] > z0.N:
        raise BadIndexSet(
            f"pair I = {pair.I}, J = {pair.J} exceeds the {z0.m} x {z0.N} coordinate matrix"
        )


def _determinant_stencil(z0: CoordMatrix, pair: MultiIndexPair, h: float):
    """The corners of the determinant expansion at step h, as (points,
    terms): the distinct corner points in stencil order, and per
    permutation its sign, its central-difference denominator and its
    corners as (corner sign, index into points)."""
    rows = [i - 1 for i in pair.I]
    cols = [j - 1 for j in pair.J]
    steps = {
        (i, j): h * (1.0 + abs(z0.entries[i, j])) for i in rows for j in cols
    }
    index = {}
    points = []
    k = pair.order
    terms = []
    for perm in permutations(range(k)):
        entries = [(rows[perm[q]], cols[q]) for q in range(k)]
        denom = 1.0
        for e in entries:
            denom *= 2.0 * steps[e]
        corners = []
        for corner in range(1 << k):
            s = 1.0
            deltas = []
            for q, e in enumerate(entries):
                if corner >> q & 1:
                    deltas.append((e, steps[e]))
                else:
                    deltas.append((e, -steps[e]))
                    s = -s
            key = tuple(sorted(((ij, complex(d)) for ij, d in deltas)))
            if key not in index:
                index[key] = len(points)
                points.append(_perturbed(z0, deltas))
            corners.append((s, index[key]))
        terms.append((_perm_sign(perm), denom, corners))
    return points, terms


def _determinant_terms(terms, values):
    """Signed mixed partials of the determinant expansion from F at the
    stencil's points."""
    out = []
    for sign, denom, corners in terms:
        acc = 0.0 + 0.0j
        for s, i in corners:
            acc += s * values[i]
        out.append(sign * acc / denom)
    return out


def _evaluate(F, points):
    """F at each point, registered in one mesh scope before the first call;
    F runs once per distinct point, in order."""
    seen = {}
    values = []
    with _mesh_scope(points):
        for z in points:
            key = _point_key(z)
            if key not in seen:
                seen[key] = F(z)
            values.append(seen[key])
    return values


def _operators(F, z0: CoordMatrix, pairs, plan):
    """(residual, scale) of each pair, from one evaluation of F over the
    stencils of all of them. A point on the branch locus or outside Z_lambda
    raises ``StencilCrossesBranchLocus``, for the first such point in
    stencil order."""
    for pair in pairs:
        _require_pair(z0, pair)
    steps = (plan.h, plan.h / 2.0) if plan.richardson else (plan.h,)
    stencils = [[_determinant_stencil(z0, pair, h) for h in steps] for pair in pairs]
    try:
        values = _evaluate(F, [z for per_pair in stencils for points, _ in per_pair
                               for z in points])
    except (OnBranchLocus, NotInZLambda) as exc:
        raise StencilCrossesBranchLocus(str(exc)) from exc
    values = iter(values)
    out = []
    for per_pair in stencils:
        terms = [_determinant_terms(terms, [next(values) for _ in points])
                 for points, terms in per_pair]
        if plan.richardson:
            terms = [(4.0 * t2 - t1) / 3.0 for t1, t2 in zip(*terms)]
        else:
            [terms] = terms
        out.append((complex(sum(terms)), float(max(abs(t) for t in terms))))
    return out


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
    [out] = _operators(F, z0, [pair], plan)
    return out


def verify_system(F, z0: CoordMatrix, pairs, plan: StencilPlan = StencilPlan(),
                  rel_tol: float = 1e-4):
    """Run every pair; report per-pair residual/scale and an overall verdict.
    The stencils of all pairs are evaluated together, so F runs once per
    distinct point of the whole check."""
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    pairs = list(pairs)
    rows = []
    for pair, (residual, scale) in zip(pairs, _operators(F, z0, pairs, plan)):
        rel = abs(residual) / max(scale, 1e-300)
        rows.append({
            "I": list(pair.I),
            "J": list(pair.J),
            "residual": [residual.real, residual.imag],
            "scale": scale,
            "relative": rel,
            "pass": bool(rel < rel_tol),
        })
    return {"pairs": rows, "pass": all(row["pass"] for row in rows)}


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
    f0, *values = _evaluate(F, points)
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
    f0, *values = _evaluate(F, points)
    residual = _central(values, eps) + z0.r * np.trace(E) * f0
    reference = abs(f0) * (1.0 + z0.r * abs(np.trace(E)))
    return InfinitesimalResult(complex(residual), float(reference))
