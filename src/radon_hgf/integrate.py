"""Numerical evaluation of the hypergeometric integrals.

Three strategies:

* adaptive-1d (r = 1): Gauss-Kronrod subdivision over concrete chains
  whose endpoints follow the branch-point roots of the coordinate
  matrix, with power substitutions at singular endpoints;
* eigen-tensor (unitarily invariant integrands): reduction to an r-fold
  eigenvalue integral against the squared Vandermonde over a Gauss rule
  whose weight absorbs the determinant powers, summed in closed form by
  Andreief's identity;
* haar-mc (general r): importance-sampled Monte Carlo over U = V L V*
  with V Haar-distributed and eigenvalues L drawn from a chain density.

The eigenvalue reduction constant c_r = pi^{r(r-1)/2} / prod_{j<=r} j!
is validated against the closed product formula by the test suite before
anything else relies on it.
"""

import cmath
import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from ._kernels import tensor_vdm_sum, vdm_sq_batch
from .characters import PartitionWeight
from .errors import (
    DivergentEndpoint,
    IncompatibleChain,
    NonConvergent,
    NotInvariant,
    NotInZLambda,
    OnBranchLocus,
    ShapeMismatch,
    UnpinnedAlpha,
)
from .grassmann import CoordMatrix, z_lambda_member
from .integrands import (
    CHAIN_KINDS,
    FAMILIES,
    FULL_LINE,
    HALF_LINE,
    INTERVAL,
    ROTATED_RAY,
    IntegrandSpec,
    NamedFamily,
    _theta_terms,
    chart_integrand_batch,
    family_of_normal_form,
    named_integrand,
    named_integrand_batch,
)
from .linalg import haar_from_gaussian, haar_unitary_batch, scalar_multiple
from .normal_form import residual_parameters
from .oracles import log_gamma_real
from .quadrature import genlaguerre, hermite_scaled, jacobi_01
from .rng import RandomStream, thread_count

# ----------------------------------------------------------------------
# chain and estimate types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChainSpec:
    kind: str
    r: int = 1
    angle: float = 2.0 * math.pi / 3.0  # rotated-ray half-angle (r = 1)

    def __post_init__(self):
        if self.kind not in CHAIN_KINDS:
            raise IncompatibleChain(f"unknown chain kind {self.kind!r}")


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


@dataclass(frozen=True)
class Budget:
    tol: float = 1e-10
    nodes: int = 64
    samples: int = 10**6
    max_intervals: int = 4000
    stream: RandomStream = RandomStream(0)


def weyl_constant(r: int) -> float:
    """pi^{r(r-1)/2} / prod_{j=1}^r j!"""
    acc = math.pi ** (r * (r - 1) / 2.0)
    for j in range(1, r + 1):
        acc /= math.factorial(j)
    return acc


# ----------------------------------------------------------------------
# Gauss-Kronrod 15(7) adaptive integration along straight lines
# ----------------------------------------------------------------------

_GK_NODES = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_GK_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_GK_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _gk15(f, a: complex, b: complex):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    k = 0.0 + 0.0j
    g = 0.0 + 0.0j
    for i, x in enumerate(_GK_NODES):
        if x == 0.0:
            fv = f(mid)
            k += _GK_WK[i] * fv
            g += _GK_WG[3] * fv
        else:
            fp = f(mid + half * x)
            fm = f(mid - half * x)
            k += _GK_WK[i] * (fp + fm)
            if i % 2 == 1:
                g += _GK_WG[i // 2] * (fp + fm)
    k *= half
    g *= half
    diff = abs(k - g)
    # (200 diff)^1.5 exceeds diff once diff >= 1, and can overflow there
    err = min(diff, (200.0 * diff) ** 1.5) if diff < 1.0 else diff
    return k, err


def _adaptive(f, a: complex, b: complex, atol: float, rtol: float, limit: int):
    val, err = _gk15(f, a, b)
    heap = [(-err, 0, a, b, val, err)]
    total = val
    total_err = err
    count = 1
    tie = 1
    while total_err > max(atol, rtol * abs(total)) and count < limit:
        neg, _, x0, x1, v, e = heappop(heap)
        mid = 0.5 * (x0 + x1)
        v1, e1 = _gk15(f, x0, mid)
        v2, e2 = _gk15(f, mid, x1)
        total += (v1 + v2) - v
        total_err += (e1 + e2) - e
        heappush(heap, (-e1, tie, x0, mid, v1, e1))
        tie += 1
        heappush(heap, (-e2, tie, mid, x1, v2, e2))
        tie += 1
        count += 1
    if total_err > 10.0 * max(atol, rtol * abs(total), 1e-300) and count >= limit:
        raise NonConvergent(
            f"interval budget {limit} exhausted with error {total_err:.2e}"
        )
    return total, total_err, count


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
    """Ray origin + t * exp(i phase), t in (0, inf)."""

    origin: complex
    phase: float = 0.0
    exp0: complex | None = None


@dataclass(frozen=True)
class FullLine:
    center: float = 0.0


@dataclass(frozen=True)
class RayPair:
    """From inf * e^{-i angle} through 0 to inf * e^{+i angle}."""

    angle: float


def _integrate_half(f, start, end, exponent, atol, rtol, limit):
    """Integrate start -> end, substituting u = start + (end-start) tau^kappa."""
    kappa = _power_kappa(exponent)
    span = end - start
    if kappa == 1:
        return _adaptive(f, start, end, atol, rtol, limit)

    def g(tau):
        t = tau**kappa
        u = start + span * t
        if u == start:
            # offset below machine resolution: the jacobian factor already
            # damps the true contribution past double precision
            return 0.0 + 0.0j
        return f(u) * (kappa * tau ** (kappa - 1)) * span

    return _adaptive(g, 0.0, 1.0, atol, rtol, limit)


def _integrate_segment(f, seg: Segment, atol, rtol, limit):
    mid = 0.5 * (seg.a + seg.b)
    v1, e1, n1 = _integrate_half(f, seg.a, mid, seg.exp_a, 0.5 * atol, rtol, limit)
    v2, e2, n2 = _integrate_half(f, seg.b, mid, seg.exp_b, 0.5 * atol, rtol, limit)
    # the second half was traversed backwards
    return v1 - v2, e1 + e2, n1 + n2


_MAX_WINDOWS = 90


def _integrate_ray(f, ray: Ray, atol, rtol, limit):
    phase = cmath.exp(1j * ray.phase)

    def g(t):
        return f(ray.origin + phase * t) * phase

    total = 0.0 + 0.0j
    err = 0.0
    count = 0
    lo, hi = 0.0, 1.0
    calm = 0
    for w in range(_MAX_WINDOWS):
        exponent = ray.exp0 if w == 0 else None
        v, e, n = _integrate_half(g, lo, hi, exponent, 0.25 * atol, rtol, limit)
        total += v
        err += e
        count += n
        bar = max(atol, rtol * abs(total))
        if abs(v) < 0.05 * bar and w >= 2:
            calm += 1
            if calm >= 2:
                return total, err, count
        else:
            calm = 0
        lo, hi = hi, hi * 2.0
    if abs(v) > 10.0 * max(atol, rtol * abs(total), 1e-300):
        raise NonConvergent("ray tail did not settle within the window budget")
    return total, err + abs(v), count


def integrate_pieces(f, pieces, tol: float = 1e-10, limit: int = 4000) -> IntegralEstimate:
    """Sum of piecewise adaptive integrals of a scalar complex function."""
    total = 0.0 + 0.0j
    err = 0.0
    count = 0
    for piece in pieces:
        atol = tol
        if isinstance(piece, Segment):
            v, e, n = _integrate_segment(f, piece, atol, tol, limit)
        elif isinstance(piece, Ray):
            v, e, n = _integrate_ray(f, piece, atol, tol, limit)
        elif isinstance(piece, FullLine):
            # the line is the outward ray at 0 minus the outward ray at pi
            v1, e1, n1 = _integrate_ray(f, Ray(piece.center, 0.0), atol, tol, limit)
            v2, e2, n2 = _integrate_ray(f, Ray(piece.center, math.pi), atol, tol, limit)
            v, e, n = v1 - v2, e1 + e2, n1 + n2
        elif isinstance(piece, RayPair):
            vp, ep, np_ = _integrate_ray(f, Ray(0.0, piece.angle), atol, tol, limit)
            vm, em, nm = _integrate_ray(f, Ray(0.0, -piece.angle), atol, tol, limit)
            v, e, n = vp - vm, ep + em, np_ + nm
        else:
            raise IncompatibleChain(f"unknown chain piece {piece!r}")
        total += v
        err += e
        count += n
    return IntegralEstimate(total, err, "adaptive-1d", count)


# ----------------------------------------------------------------------
# named-family scalar chains (r = 1)
# ----------------------------------------------------------------------

def _family_on(fam: NamedFamily, chain: ChainSpec):
    """The registry entry of a family that integrates over the chain."""
    entry = FAMILIES[fam.tag]
    if chain.kind not in entry.chains:
        raise IncompatibleChain(f"{fam.tag} does not integrate over the {chain.kind} chain")
    return entry


def integrate_r1(fam_or_fn, chain: ChainSpec, tol: float = 1e-10,
                 pieces=None, limit: int = 4000) -> IntegralEstimate:
    """Adaptive scalar integration (r = 1) of a named family or callable.

    A callable must map complex u to complex values; pieces may override
    the default chain realization (used by the Grassmannian evaluator,
    whose endpoints move with the coordinate matrix).
    """
    if chain.r != 1:
        raise IncompatibleChain("integrate_r1 requires r = 1")
    if isinstance(fam_or_fn, NamedFamily):
        fam = fam_or_fn
        if pieces is None:
            entry = _family_on(fam, chain)
            e = entry.exponents(fam.params, fam.X)
            if chain.kind == INTERVAL:
                pieces = [Segment(0.0, 1.0, e[0] - 1, e[1] - 1)]
            elif chain.kind == HALF_LINE:
                pieces = [Ray(0.0, 0.0, e[0] - 1)]
            elif chain.kind == FULL_LINE:
                pieces = [FullLine()]
            else:
                pieces = [RayPair(chain.angle)]

        def f(u):
            return named_integrand(fam, np.array([[u]]), check_domain=False)

    else:
        f = fam_or_fn
        if pieces is None:
            raise IncompatibleChain("callable integrands need explicit chain pieces")
    return integrate_pieces(f, pieces, tol=tol, limit=limit)


# ----------------------------------------------------------------------
# eigenvalue-reduced tensor quadrature (invariant integrands)
# ----------------------------------------------------------------------

def _eigen_rule(fam: NamedFamily, r: int):
    """n -> (nodes, weights) of the family's eigenvalue integral: a Gauss
    rule (Jacobi, scaled Laguerre or Hermite) for the real part of its chain
    weight, the weights times the rest of the per-eigenvalue factor."""
    entry = FAMILIES[fam.tag]
    if entry.phi is None:
        raise IncompatibleChain(
            f"{fam.tag} has no positive eigenvalue weight; eigen-tensor "
            "unsupported (use haar-mc, experimental)"
        )
    x = 0.0 if fam.X is None else scalar_multiple(fam.X)
    xs = tuple(scalar_multiple(m) for m in fam.xs)
    if x is None or None in xs:
        raise NotInvariant("matrix argument breaks unitary invariance")
    kind = entry.chains[0]
    e = [complex(v) for v in entry.exponents(fam.params, fam.X)]

    def build(n):
        if kind == INTERVAL:
            pa, qb = e[0].real - r, e[1].real - r
            if pa <= -1 or qb <= -1:
                raise IncompatibleChain("beta-type exponents must exceed -1")
            lam, w = jacobi_01(n, pa, qb)
            w = w * np.exp(1j * (e[0].imag * np.log(lam) + e[1].imag * np.log1p(-lam)))
        elif kind == HALF_LINE:
            pa, rate = e[0].real - r, e[1].real
            if rate <= 0:
                raise IncompatibleChain("half-line weight needs a positive decay rate")
            if pa <= -1:
                raise IncompatibleChain("half-line exponent must exceed -1")
            s_nodes, s_weights = genlaguerre(n, pa)
            lam = s_nodes / rate
            w = s_weights * rate ** (-pa - 1.0)
            w = w * np.exp(1j * (e[0].imag * np.log(lam) - e[1].imag * lam))
        else:
            lam, w = hermite_scaled(n)
        return lam, w * entry.phi(fam.params, lam, x, xs)

    return build


def _invariance_probe(fn_matrix, r: int, domain: str):
    """Compare fn at two unitary conjugates of one diagonal point of the
    domain (a chain kind)."""
    stream = RandomStream(seed=140814)
    g = stream.generator()
    if domain == INTERVAL:
        lam = 0.25 + 0.5 * g.random(r)
    elif domain == HALF_LINE:
        lam = 0.5 + g.random(r)
    else:
        lam = g.standard_normal(r)
    v = haar_unitary_batch(r, 2, stream.jump(1))
    u0 = (v[0] * lam) @ v[0].conj().T
    u1 = v[1] @ u0 @ v[1].conj().T
    f0 = fn_matrix(u0)
    f1 = fn_matrix(u1)
    if abs(f0 - f1) > 1e-8 * (1.0 + abs(f0)):
        raise NotInvariant("integrand is not unitarily invariant")


def integrate_invariant(fam: NamedFamily, r: int, nodes: int = 64,
                        probe: bool = True) -> IntegralEstimate:
    """Deterministic eigenvalue-reduced quadrature for invariant integrands."""
    build = _eigen_rule(fam, r)
    if probe:
        _invariance_probe(
            lambda U: named_integrand(fam, U, check_domain=False),
            r,
            FAMILIES[fam.tag].domain,
        )
    cr = weyl_constant(r)

    def run(n):
        lam, wg = build(n)
        return cr * tensor_vdm_sum(wg, lam, r)

    coarse_nodes = max(8, r, nodes // 2)
    coarse = run(coarse_nodes)
    fine = run(nodes)
    return IntegralEstimate(fine, abs(fine - coarse), "eigen-tensor",
                            nodes + coarse_nodes)


# ----------------------------------------------------------------------
# Haar Monte Carlo
# ----------------------------------------------------------------------

_MC_PARTS = 16
_MC_CHUNK = 1 << 15


def _chain_sampler(chain: ChainSpec, exponents, r: int):
    """Eigenvalue base density and its log-pdf for the chain kind: the
    chain weight's exponents e give Beta(e0 - r + 1, e1 - r + 1) on the
    interval and Gamma(e0 - r + 1) at rate e1 on the half line (unit rate
    when the weight has no e1)."""
    if chain.kind == INTERVAL:
        a_sh, b_sh = (complex(e).real - r + 1.0 for e in exponents[:2])
        if a_sh <= 0 or b_sh <= 0:
            raise IncompatibleChain("beta chain needs Re a, Re b > r - 1")
        lnB = log_gamma_real(a_sh) + log_gamma_real(b_sh) - log_gamma_real(a_sh + b_sh)

        def sample(gen, count):
            lam = gen.beta(a_sh, b_sh, size=(count, r))
            logpdf = np.sum(
                (a_sh - 1.0) * np.log(lam) + (b_sh - 1.0) * np.log1p(-lam) - lnB,
                axis=1,
            )
            return lam, logpdf

        return sample
    if chain.kind == HALF_LINE:
        shape = complex(exponents[0]).real - r + 1.0
        rate = complex(exponents[1]).real if len(exponents) > 1 else 1.0
        if shape <= 0:
            raise IncompatibleChain("gamma chain needs a positive shape")
        if rate <= 0:
            raise IncompatibleChain("half-line weight needs a positive decay rate")
        lnG = log_gamma_real(shape) - shape * math.log(rate)

        def sample(gen, count):
            lam = gen.gamma(shape, size=(count, r)) / rate
            logpdf = np.sum((shape - 1.0) * np.log(lam) - rate * lam - lnG, axis=1)
            return lam, logpdf

        return sample
    if chain.kind == FULL_LINE:
        ln_norm = 0.5 * math.log(2.0 * math.pi)

        def sample(gen, count):
            lam = gen.standard_normal((count, r))
            logpdf = np.sum(-0.5 * lam * lam - ln_norm, axis=1)
            return lam, logpdf

        return sample
    raise IncompatibleChain(f"no Monte Carlo density for chain {chain.kind}")


def integrate_haar_mc(fam: NamedFamily, chain: ChainSpec, samples: int,
                      stream: RandomStream, r: int | None = None,
                      batch_fn=None) -> IntegralEstimate:
    """Monte Carlo over U = V diag(lam) V^* with V Haar and lam chain-sampled.

    The sample space is split into a fixed number of counter-jumped
    substreams and reduced in substream order, so the estimate is
    bit-identical for a given (seed, samples) regardless of threading.
    A ``batch_fn`` replaces the family's kernel; the family then only
    shapes the eigenvalue density.
    """
    r = chain.r if r is None else r
    if batch_fn is None:
        _family_on(fam, chain)

        def batch_fn(u):
            return named_integrand_batch(fam, u)

    sampler = _chain_sampler(chain, FAMILIES[fam.tag].exponents(fam.params, fam.X), r)

    log_cr = math.log(weyl_constant(r))
    part_sizes = [samples // _MC_PARTS] * _MC_PARTS
    part_sizes[-1] += samples - sum(part_sizes)

    def run_part(idx):
        gen = stream.jump(idx + 1).generator()
        remaining = part_sizes[idx]
        acc = 0.0 + 0.0j
        acc2 = 0.0
        while remaining > 0:
            count = min(remaining, _MC_CHUNK)
            remaining -= count
            lam, logpdf = sampler(gen, count)
            gin = (gen.standard_normal((count, r, r))
                   + 1j * gen.standard_normal((count, r, r))) / math.sqrt(2.0)
            v = haar_from_gaussian(gin)
            u = np.einsum("bij,bj,bkj->bik", v, lam.astype(np.complex128), v.conj())
            vals = batch_fn(u)
            vsq = vdm_sq_batch(lam)
            weights = np.exp(log_cr + np.log(vsq) - logpdf)
            contrib = vals * weights
            acc += complex(np.sum(contrib))
            acc2 += float(np.sum(np.abs(contrib) ** 2))
        return acc, acc2

    threads = thread_count()
    results = [None] * _MC_PARTS
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(threads, _MC_PARTS)) as pool:
            for idx, res in enumerate(pool.map(run_part, range(_MC_PARTS))):
                results[idx] = res
    else:
        for idx in range(_MC_PARTS):
            results[idx] = run_part(idx)

    total = sum((res[0] for res in results), start=0.0 + 0.0j)
    total2 = sum(res[1] for res in results)
    mean = total / samples
    var = max(total2 / samples - abs(mean) ** 2, 0.0)
    sem = math.sqrt(var / max(samples - 1, 1))
    return IntegralEstimate(mean, sem, "haar-mc", samples, seed=stream.seed)


# ----------------------------------------------------------------------
# Grassmannian integrals
# ----------------------------------------------------------------------

def scalar_chart_function(z: CoordMatrix, pw: PartitionWeight):
    """Fast r = 1 chart integrand u -> chi(ubar z) as plain complex arithmetic."""
    if z.r != 1 or pw.r != 1:
        raise ShapeMismatch("scalar chart function requires r = 1")
    blocks = []
    for j, nk in enumerate(z.lam):
        coeffs = []
        for q in range(nk):
            col = z.block(j, q)
            coeffs.append((complex(col[0, 0]), complex(col[1, 0])))
        blocks.append((coeffs, pw.alpha[j], _theta_terms(nk)))

    def f(u):
        acc = 1.0 + 0.0j
        for coeffs, alpha, terms in blocks:
            a0, b0 = coeffs[0]
            m0 = a0 + u * b0
            if m0 == 0:
                raise OnBranchLocus("chart point sits on a branch hypersurface")
            acc *= m0 ** alpha[0]
            if len(coeffs) > 1:
                c = [(aq + u * bq) / m0 for aq, bq in coeffs[1:]]
                expo = 0.0 + 0.0j
                for k in range(1, len(coeffs)):
                    th = 0.0 + 0.0j
                    for word, coef in terms[k - 1]:
                        prod = coef
                        for letter in word:
                            prod *= c[letter - 1]
                        th += prod
                    expo += alpha[k] * th
                if expo.real > 700.0:
                    raise OnBranchLocus(
                        "exponential part overflows: chain runs into a pole"
                    )
                acc *= cmath.exp(expo)
        return acc

    return f


def _block_roots_r1(z: CoordMatrix):
    roots = []
    for j in range(z.ell):
        col = z.block(j, 0)
        a0, b0 = complex(col[0, 0]), complex(col[1, 0])
        roots.append(None if abs(b0) < 1e-13 * max(1.0, abs(a0)) else -a0 / b0)
    return roots


def chart_pieces_r1(z: CoordMatrix, pw: PartitionWeight, chain: ChainSpec):
    """Concrete chain realization whose endpoints follow the block roots."""
    roots = _block_roots_r1(z)
    if chain.kind == INTERVAL:
        if z.ell < 3:
            raise IncompatibleChain("interval chains need at least three blocks")
        a, b = roots[1], roots[2]
        if a is None or b is None:
            raise IncompatibleChain("interval endpoints escaped to infinity")
        return [Segment(a, b, pw.alpha[1][0], pw.alpha[2][0])]
    if chain.kind == HALF_LINE:
        if z.ell < 2:
            raise IncompatibleChain("half-line chains need at least two blocks")
        origin = roots[1]
        if origin is None:
            raise IncompatibleChain("half-line origin escaped to infinity")
        return [Ray(origin, 0.0, pw.alpha[1][0])]
    if chain.kind == FULL_LINE:
        return [FullLine()]
    if chain.kind == ROTATED_RAY:
        return [RayPair(chain.angle)]
    raise IncompatibleChain(f"unsupported chain {chain.kind}")


def _radon_eigen_family(z: CoordMatrix, pw: PartitionWeight):
    """Named-family equivalent of a table normal form with generic weights,
    and the factor its integral is multiplied by."""
    xs = residual_parameters(z)
    if xs is None:
        raise IncompatibleChain(
            "deterministic eigen-tensor evaluation needs a table normal form"
        )
    r = z.r
    al = pw.flat_alpha()
    lam = z.lam
    if lam == (1, 1, 1):
        return NamedFamily("beta_r", {"a": al[1] + r, "b": al[2] + r}), 1.0
    if lam == (2, 1):
        a2 = complex(al[1])
        if a2.real >= 0 or abs(a2.imag) > 1e-13:
            raise IncompatibleChain("half-line rescaling needs real alpha_2 < 0")
        # exp(alpha_2 Tr u) (det u)^{alpha_3} over u > 0 is the matrix gamma
        # integral after u -> u / rate
        rate = -a2.real
        a = complex(al[2] + r)
        return NamedFamily("gamma_r", {"a": a}), rate ** complex(-(a - r) * r - r * r)
    if len(xs) != 1:
        raise IncompatibleChain(f"no eigen-tensor reduction wired for partition {lam}")
    x = scalar_multiple(xs[0])
    if x is None:
        raise IncompatibleChain("matrix residual parameter is not scalar")
    try:
        return family_of_normal_form(lam, x * np.eye(r), al, r), 1.0
    except UnpinnedAlpha as exc:
        raise IncompatibleChain(str(exc)) from exc


def radon_hgf(z: CoordMatrix, pw: PartitionWeight, chain: ChainSpec,
              budget: Budget = Budget(), method: str = "auto") -> IntegralEstimate:
    """Evaluate the Grassmannian integral over a concrete chain.

    r = 1 uses root-following adaptive quadrature; r >= 2 uses the
    eigenvalue reduction on recognized normal forms, falling back to
    Haar Monte Carlo.
    """
    if z.lam != pw.lam or z.r != pw.r:
        raise ShapeMismatch("coordinate matrix and weight partition disagree")
    if z.m == 2 * z.r:
        res = z_lambda_member(z)
        if not res.member:
            raise NotInZLambda(
                f"weight-2 minors vanish: {[m.mu for m in res.failing]}",
                witnesses=list(res.failing),
            )
    r = z.r
    if r == 1:
        f = scalar_chart_function(z, pw)
        pieces = chart_pieces_r1(z, pw, chain)
        est = integrate_pieces(f, pieces, tol=budget.tol, limit=budget.max_intervals)
        return est
    if method in ("auto", "eigen-tensor"):
        try:
            fam, factor = _radon_eigen_family(z, pw)
            # integrate_invariant integrates over the family's default chain
            default = FAMILIES[fam.tag].chains[0]
            if chain.kind != default:
                raise IncompatibleChain(
                    f"eigen-tensor {fam.tag} integrates over the {default} chain"
                )
            est = integrate_invariant(fam, r, nodes=budget.nodes, probe=False)
            return IntegralEstimate(
                est.value * factor,
                est.abs_error_est * abs(factor),
                "eigen-tensor",
                est.nodes_or_samples,
            )
        except IncompatibleChain:
            if method == "eigen-tensor":
                raise
    # Monte Carlo fallback on the chart integrand
    spec = IntegrandSpec(pw, z)
    eye = np.eye(r, dtype=np.complex128)

    def batch_fn(u):
        return chart_integrand_batch(
            spec, np.concatenate([np.broadcast_to(eye, u.shape), u], axis=2)
        )

    # eigenvalue density Beta(2, 2) on the interval, Gamma(2) at unit rate on
    # the half line
    if chain.kind == HALF_LINE:
        fam = NamedFamily("gamma_r", {"a": 1.0 + r})
    else:
        fam = NamedFamily("beta_r", {"a": 1.0 + r, "b": 1.0 + r})
    est = integrate_haar_mc(
        fam, chain, budget.samples, budget.stream, r=r, batch_fn=batch_fn
    )
    return est
