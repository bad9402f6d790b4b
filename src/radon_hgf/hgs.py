"""Finite-difference verification of the annihilating differential system.

The order-(r+1) operators are determinants of entry derivatives of the
coordinate matrix: expanding the determinant gives (r+1)! signed mixed
partials, each over r+1 distinct entries, computed here by nested
central differences with per-entry step scaling and optional Richardson
extrapolation.  Zero tests are always relative to the largest single
determinant term, so conditioning is visible in every report.

``apply_DIJ``, ``verify_system`` and the two infinitesimal checks call F
inside a mesh scope of ``integrate``: the r = 1 integrals of one stencil
lie within a few steps of z0 and need much the same mesh, so each starts
from the breakpoints the last one left and seldom refines them. A value
meets the same tolerance as outside the scope, but may differ from it at
rounding level, and the mesh of a half signature only gets finer within
the scope. A plain ``radon_hgf`` call never enters a scope.
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


def _perturbed(z: CoordMatrix, deltas) -> CoordMatrix:
    e = z.entries.copy()
    for (i, j), d in deltas:
        e[i, j] += d
    return z.with_entries(e)


def _determinant_terms(F, z0: CoordMatrix, pair: MultiIndexPair, h: float):
    """Signed mixed partials of the determinant expansion at step h."""
    rows = [i - 1 for i in pair.I]
    cols = [j - 1 for j in pair.J]
    steps = {
        (i, j): h * (1.0 + abs(z0.entries[i, j])) for i in rows for j in cols
    }
    cache = {}

    def feval(deltas):
        key = tuple(sorted(((ij, complex(d)) for ij, d in deltas)))
        if key not in cache:
            try:
                cache[key] = F(_perturbed(z0, deltas))
            except (OnBranchLocus, NotInZLambda) as exc:
                raise StencilCrossesBranchLocus(str(exc)) from exc
        return cache[key]

    k = pair.order
    terms = []
    for perm in permutations(range(k)):
        sign = _perm_sign(perm)
        entries = [(rows[perm[q]], cols[q]) for q in range(k)]
        acc = 0.0 + 0.0j
        denom = 1.0
        for e in entries:
            denom *= 2.0 * steps[e]
        for corner in range(1 << k):
            s = 1.0
            deltas = []
            for q, e in enumerate(entries):
                if corner >> q & 1:
                    deltas.append((e, steps[e]))
                else:
                    deltas.append((e, -steps[e]))
                    s = -s
            acc += s * feval(deltas)
        terms.append(sign * acc / denom)
    return terms


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
    with _mesh_scope():
        terms_h = _determinant_terms(F, z0, pair, plan.h)
        if plan.richardson:
            terms_h2 = _determinant_terms(F, z0, pair, plan.h / 2.0)
            terms = [(4.0 * t2 - t1) / 3.0 for t1, t2 in zip(terms_h, terms_h2)]
        else:
            terms = terms_h
    residual = sum(terms)
    scale = max(abs(t) for t in terms)
    return complex(residual), float(scale)


def verify_system(F, z0: CoordMatrix, pairs, plan: StencilPlan = StencilPlan(),
                  rel_tol: float = 1e-4):
    """Run every pair; report per-pair residual/scale and an overall verdict."""

    def one(pair):
        residual, scale = apply_DIJ(F, z0, pair, plan)
        rel = abs(residual) / max(scale, 1e-300)
        return {
            "I": list(pair.I),
            "J": list(pair.J),
            "residual": [residual.real, residual.imag],
            "scale": scale,
            "relative": rel,
            "pass": bool(rel < rel_tol),
        }

    with _mesh_scope():
        rows = [one(pair) for pair in pairs]
    return {"pairs": rows, "pass": all(row["pass"] for row in rows)}


@dataclass(frozen=True)
class InfinitesimalResult:
    residual: complex
    reference: float

    @property
    def relative(self) -> float:
        return abs(self.residual) / max(self.reference, 1e-300)


def _central(fn, eps: float) -> complex:
    """Richardson-extrapolated central difference of fn at 0."""
    def d(step):
        return (fn(step) - fn(-step)) / (2.0 * step)

    return (4.0 * d(eps / 2.0) - d(eps)) / 3.0


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

    def fn(t):
        return F(apply_group(z0, h=element(t)))

    with _mesh_scope():
        f0 = F(z0)
        dchi = dchi_lambda(direction, pw)
        deriv = _central(fn, eps)
    residual = deriv - dchi * f0
    reference = abs(f0) * (1.0 + abs(dchi))
    return InfinitesimalResult(complex(residual), float(reference))


def check_gl_infinitesimal(F, z0: CoordMatrix, E, eps: float = 1e-3) -> InfinitesimalResult:
    """d/de F(exp(e E) z) at 0 plus r Tr(E) F(z)."""
    _require_step(eps)
    E = np.asarray(E, dtype=np.complex128)
    if E.shape != (z0.m, z0.m):
        raise BadIndexSet("direction must act on the row space")

    def fn(t):
        return F(apply_group(z0, g=scipy.linalg.expm(t * E)))

    with _mesh_scope():
        f0 = F(z0)
        deriv = _central(fn, eps)
    residual = deriv + z0.r * np.trace(E) * f0
    reference = abs(f0) * (1.0 + z0.r * abs(np.trace(E)))
    return InfinitesimalResult(complex(residual), float(reference))
