"""Seeded op pools of the radon-hgf benchmark and the checks of their results.

An op is one call of the library's public API, checked against a
reference made in set-up. Every input is a pure function of the workload
seed, and the library sees only those inputs. Ops reach the library
through attributes of the ``radon_hgf`` package looked up at call time,
so wrappers installed by the tracer see every call.

References avoid the timed code path wherever one exists: the closed
forms and series of ``radon_hgf.oracles``, ``scipy.special`` for the
confluent r = 1 kernels, and QUADPACK moments (Andreief's identity) for
the r >= 2 Gauss kernel at a scalar argument.
"""

import cmath
import hashlib
import math
import re
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import scipy.integrate
import scipy.special as sp

import radon_hgf as rh
from radon_hgf.errors import RadonHGFError

WORKLOADS = ("pde-r1", "orbit-eval", "mc-r2")

# Library failures present when the benchmark was introduced, by op kind.
# They count as failed ops; ``correct`` stays true only while every
# failure falls in this list, so a new kind of failure shows.
BASELINE_FAILURES = {
    # the endpoint substitution returns 0 once u rounds to the endpoint; at
    # an endpoint of 1 that drops a stretch of width ~1e-16, which matters
    # for endpoint exponents below about -0.45: the value is off by 1e-8 to
    # 3e-7 relative while abs_error_est stays near 1e-10
    "r1-(1,1,1)-interval": {"reference"},
    "r1-(1,1,1,1)-interval": {"reference"},
    "r1-(2,1,1)-interval": {"reference"},
    "r1-(1^5)-interval": {"reference"},
    # the chart integrand grows along the rotated rays that suit the named
    # Airy kernel, and radon_hgf stops with OnBranchLocus
    "r1-(4,)-rotated-ray": {"OnBranchLocus"},
    # a divergent input must raise a typed error, but raises OverflowError
    "invalid-(3,1)-full-line": {"OverflowError"},
    # the chart Monte Carlo fallback returns nan +- nan, or overflows, on
    # some general orbit points
    "chart-orbit-(2,1,1)": {"nonfinite", "OverflowError"},
}

# Every valid orbit-eval op (kind "r<r>-...") first reduces its orbit
# point. The reductions check their residual against a fixed 1e-10, and
# lose more than that on points whose pivot has a condition number near
# 1e4, which z_lambda_member accepts by a wide margin; such points raise
# DegenerateOrbit. About 2 (4,) points in a thousand do, and (3,1) ones
# more rarely.
_ORBIT_KIND = re.compile(r"r\d+-")
_REDUCTION_FAILURES = {"DegenerateOrbit"}

# Pool sizes, in cycles. A cycle holds one op of each kind of a workload,
# and the timed loop runs whole cycles, so every run has the same op mix.
# An odd number of kinds puts the median op inside one kind's block.
_POOL_CYCLES = {"pde-r1": 96, "orbit-eval": 8, "mc-r2": 4}

# CPU seconds of one cycle on the machine the benchmark was calibrated on
# (2 vCPUs, Python 3.11, numpy 2.4). A run of --seconds s runs the whole
# number of cycles nearest to s / NOMINAL_CYCLE_S, so the work of a run is
# fixed and the metrics do not jump with the count of cycles that fit.
NOMINAL_CYCLE_S = {"pde-r1": 0.55, "orbit-eval": 0.38, "mc-r2": 8.5}

_MC_SAMPLES = 1 << 17
# 16 substreams of 3 * 2**14 samples: each runs two 2**15 chunks
_MC_SAMPLES_LARGE = 3 << 18
_MC_WARMUP_SAMPLES = 1 << 12
_MC_Z_MAX = 5.0
_EVAL_RTOL = 1e-8
_X_RTOL = 1e-9
_PDE_RTOL = 1e-4


@dataclass(frozen=True)
class Op:
    """One checked call: ``check(call(), ref)`` returns measurements whose
    ``err_over_tol`` is at most 1 when the result is right, and nan when
    the result is not finite."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any, Any], dict]
    inputs: tuple
    ref: Any = None
    invalid: bool = False


@dataclass(frozen=True)
class Outcome:
    """``seconds`` is process CPU time, ``wall`` wall-clock time."""

    kind: str
    seconds: float
    wall: float
    failure: str | None
    stats: dict
    summary: str


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: list
    cycles: list


def execute(op: Op) -> Outcome:
    """Run one op, time it, and judge its result."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        result = op.call()
    except Exception as exc:  # any exception is a judged outcome of the op
        seconds, wall = time.process_time() - c0, time.perf_counter() - w0
        typed = isinstance(exc, RadonHGFError)
        failure = None if op.invalid and typed else type(exc).__name__
        return Outcome(op.kind, seconds, wall, failure, {}, type(exc).__name__)
    seconds, wall = time.process_time() - c0, time.perf_counter() - w0
    if op.invalid:
        return Outcome(op.kind, seconds, wall, "no-error", {}, repr(result))
    stats = op.check(result, op.ref)
    err = stats["err_over_tol"]
    if not math.isfinite(err):
        failure = "nonfinite"
    elif err > 1.0:
        failure = "reference"
    else:
        failure = None
    return Outcome(op.kind, seconds, wall, failure, stats, _summary(result))


def is_baseline(outcome: Outcome) -> bool:
    if _ORBIT_KIND.match(outcome.kind) and outcome.failure in _REDUCTION_FAILURES:
        return True
    return outcome.failure in BASELINE_FAILURES.get(outcome.kind, ())


def _summary(result) -> str:
    if isinstance(result, tuple):
        return "|".join(_summary(r) for r in result)
    if isinstance(result, rh.IntegralEstimate):
        return repr((result.value, result.abs_error_est, result.nodes_or_samples))
    if isinstance(result, rh.NormalFormResult):
        return repr([x.tobytes() for x in result.x])
    return repr(result)


def _finite(*values) -> bool:
    return all(cmath.isfinite(complex(v)) for v in values)


def fingerprint(workload: Workload) -> str:
    """Digest of every op input, warm-up included."""
    h = hashlib.sha256()
    for op in workload.warmup + [op for cycle in workload.cycles for op in cycle]:
        h.update(op.kind.encode())
        for item in op.inputs:
            h.update(item.tobytes() if isinstance(item, np.ndarray) else repr(item).encode())
    return h.hexdigest()


def build(name: str, seed: int) -> Workload:
    """Inputs, references and warm-up ops of a workload, from its seed alone."""
    gen = np.random.default_rng([seed, WORKLOADS.index(name)])
    maker = {"pde-r1": _pde_cycle, "orbit-eval": _orbit_cycle, "mc-r2": _mc_cycle}[name]
    warmup = maker(gen, warmup=True)
    cycles = [maker(gen) for _ in range(_POOL_CYCLES[name])]
    return Workload(name, warmup, cycles)


# ----------------------------------------------------------------------
# pde-r1: the annihilating system by finite differences
# ----------------------------------------------------------------------

# (flat weight, x, chain) of the three annihilating-system cases of the
# acceptance suite; the endpoint exponents keep the stencils tame
_PDE_CASES = {
    (1, 1, 1, 1): ((1.25 - 3.35, 1.55 - 1, 3.35 - 1.55 - 1, -1.25), -0.6, "interval-0-1"),
    (2, 1, 1): ((-2 - 0.45 - 0.55, 0.9, 0.45, 0.55), 0.8, "interval-0-1"),
    (2, 2): ((-2 - 0.35, 1.0, 0.35, -1.0), -0.7, "half-line"),
}


def _pde_cycle(gen, warmup=False):
    # the warm-up runs the unperturbed cases: the cost of a (2,2) op varies
    # threefold between base points, and set-up time should not
    scale = 0.0 if warmup else 0.06
    return [_pde_op(gen, lam, scale) for lam in _PDE_CASES]


def _pde_op(gen, lam, scale):
    flat, x, chain_kind = _PDE_CASES[lam]
    entries = rh.pattern(lam, 1, (np.array([[x]]),)) + scale * gen.standard_normal((2, 4))
    if lam == (2, 2):
        # keep the first block's pole off the positive ray
        entries[1, 0] = abs(entries[1, 0]) + 0.02
    z0 = rh.CoordMatrix(lam, 1, entries)
    pw = rh.PartitionWeight.from_flat(lam, flat, 2, 1, strict=False)
    chain = rh.ChainSpec(chain_kind, 1)
    budget = rh.Budget(tol=5e-13)
    pairs = rh.all_pairs(2, 4, 1)

    def F(z):
        return rh.radon_hgf(z, pw, chain, budget).value

    def call():
        return rh.verify_system(F, z0, pairs, rh.StencilPlan(h=1e-3), rel_tol=_PDE_RTOL)

    return Op(f"pde-{_fmt(lam)}", call, _check_pde, (lam, entries))


def _check_pde(report, ref):
    rows = report["pairs"]
    rel = float(np.max([row["relative"] for row in rows]))
    if not _finite(*(complex(*row["residual"]) for row in rows), *(row["scale"] for row in rows)):
        rel = math.nan
    return {"err_over_tol": rel / _PDE_RTOL, "rel_residual": rel}


# ----------------------------------------------------------------------
# orbit-eval: reduce an orbit point, then evaluate on its normal form
# ----------------------------------------------------------------------

def _flat(lam, r, free):
    """Flat weight with the given entries from position 1 on; the first
    entry makes the leading weights sum to -2r."""
    flat = [0.0] + list(free)
    lead, pos = [], 0
    for nk in lam:
        lead.append(pos)
        pos += nk
    flat[0] = -2 * r - sum(flat[i] for i in lead[1:])
    return tuple(flat)


def _signed(gen, lo, hi):
    return float(gen.choice((-1.0, 1.0)) * gen.uniform(lo, hi))


def _group_pair(gen, lam, r):
    while True:
        g = gen.standard_normal((2 * r, 2 * r)) + 1.5 * np.eye(2 * r)
        if np.linalg.cond(g) < 60:
            break
    blocks = []
    for nk in lam:
        while True:
            h0 = gen.standard_normal((r, r)) + 2.0 * np.eye(r)
            if np.linalg.cond(h0) < 40:
                break
        coeffs = [h0] + [0.7 * gen.standard_normal((r, r)) for _ in range(nk - 1)]
        blocks.append(rh.TruncPoly.from_list(coeffs))
    return g, rh.GroupElement(tuple(blocks))


def _orbit_point(gen, nf):
    """g . nf . h with conditioning margins on g, h and the defining minors.

    The minors are compared with their Hadamard bound, which loosens as r
    grows, so the margin shrinks with r."""
    margin = 3e-3 * 0.03 ** max(0, nf.r - 2)
    for _ in range(200):
        g, h = _group_pair(gen, nf.lam, nf.r)
        z = rh.apply_group(nf, g=g, h=h)
        if rh.z_lambda_member(z, rtol=margin).member and np.abs(z.entries).max() < 30.0:
            return z
    raise RuntimeError("no well-conditioned orbit point")


def _andreief_ratio(r, p, q, phi):
    """I(phi) / I(1), where I(f) is the r-fold eigenvalue integral of
    prod_i u_i^p (1 - u_i)^q f(u_i) against the squared Vandermonde.

    By Andreief's identity I(f) = r! det[m_{i+j}(f)] with moments
    m_k(f) = int_0^1 u^k u^p (1-u)^q f(u) du, which QUADPACK's
    algebraic-weight rule evaluates."""

    def det_moments(f):
        m = np.empty((r, r))
        for i in range(r):
            for j in range(r):
                m[i, j] = scipy.integrate.quad(
                    lambda u, k=i + j: u**k * f(u), 0.0, 1.0, weight="alg",
                    wvar=(p, q), epsabs=0.0, epsrel=1e-13, limit=200,
                )[0]
        return np.linalg.det(m)

    return det_moments(phi) / det_moments(lambda u: 1.0)


def _orbit_op(gen, kind, lam, r, xs, free, chain, reducer, ref, invalid=False):
    nf = rh.CoordMatrix(lam, r, rh.pattern(lam, r, xs))
    z = _orbit_point(gen, nf)
    flat = _flat(lam, r, free)
    pw = rh.PartitionWeight.from_flat(lam, flat, 2 * r, r, strict=False)
    spec = rh.ChainSpec(chain, r)
    budget = rh.Budget(tol=1e-10)

    def call():
        out = getattr(rh, reducer)(z)
        form = rh.CoordMatrix(lam, r, rh.pattern(lam, r, out.x))
        return out, rh.radon_hgf(form, pw, spec, budget)

    def check(result, ref):
        out, est = result
        x_err = max(
            (float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))
             for got, want in zip(out.x, xs)),
            default=0.0,
        )
        val_err = abs(est.value - ref) / abs(ref)
        err = max(x_err / _X_RTOL, val_err / _EVAL_RTOL)
        if not _finite(est.value, est.abs_error_est):
            err = math.nan
        return {"err_over_tol": err, "nf_residual": out.residual}

    inputs = (z.entries, flat, chain, tuple(xs))
    return Op(kind, call, check, inputs, ref=complex(ref), invalid=invalid)


def _orbit_cycle(gen, warmup=False):
    ops = []
    u = gen.uniform
    eye = np.eye

    # r = 1 on every table partition, each on its chain
    a2, a3 = u(-0.6, 1.5), u(-0.6, 1.5)
    ops.append(_orbit_op(gen, "r1-(1,1,1)-interval", (1, 1, 1), 1, (), (a2, a3),
                         "interval-0-1", "reduce3", rh.oracles.beta(a2 + 1, a3 + 1)))

    a2, a3 = u(-2.0, -0.5), u(-0.5, 1.5)
    ops.append(_orbit_op(gen, "r1-(2,1)-half-line", (2, 1), 1, (), (a2, a3), "half-line",
                         "reduce3", rh.gamma(a3 + 1) * (-a2) ** (-(a3 + 1))))

    a2, a3 = u(-1.0, 1.0), u(0.5, 2.0)
    ops.append(_orbit_op(gen, "r1-(3,)-full-line", (3,), 1, (), (a2, a3), "full-line",
                         "reduce3", math.sqrt(2 * math.pi / a3) * math.exp(a2**2 / (2 * a3))))

    a2, a3, a4, x = u(-0.5, 1.5), u(-0.5, 1.5), u(-1.5, 1.0), _signed(gen, 0.15, 0.6)
    ref = rh.oracles.beta(a2 + 1, a3 + 1) * rh.gauss_2f1(a2 + 1, -a4, a2 + a3 + 2, x)
    ops.append(_orbit_op(gen, "r1-(1,1,1,1)-interval", (1, 1, 1, 1), 1, (eye(1) * x,),
                         (a2, a3, a4), "interval-0-1", "reduce4", ref))

    a2, a3, a4, x = u(0.5, 1.5), u(-0.5, 1.5), u(-0.5, 1.5), _signed(gen, 0.15, 1.0)
    ref = rh.oracles.beta(a3 + 1, a4 + 1) * sp.hyp1f1(a3 + 1, a3 + a4 + 2, a2 * x)
    ops.append(_orbit_op(gen, "r1-(2,1,1)-interval", (2, 1, 1), 1, (eye(1) * x,),
                         (a2, a3, a4), "interval-0-1", "reduce4", ref))

    # int_0^oo u^(nu-1) exp(-b u - c/u) du = 2 (c/b)^(nu/2) K_nu(2 sqrt(b c))
    a2, a3, a4, x = u(0.5, 1.5), u(-0.5, 1.5), u(-1.5, -0.5), u(-1.5, -0.3)
    nu, b, c = a3 + 1, -a2 * x, -a4
    ref = 2 * (c / b) ** (nu / 2) * sp.kv(nu, 2 * math.sqrt(b * c))
    ops.append(_orbit_op(gen, "r1-(2,2)-half-line", (2, 2), 1, (eye(1) * x,),
                         (a2, a3, a4), "half-line", "reduce4", ref))

    # int_0^oo u^(nu-1) exp(b u - s u^2/2) du
    #   = s^(-nu/2) Gamma(nu) exp(y^2/4) D_{-nu}(-y),  y = b / sqrt(s)
    a2, a3, a4, x = u(-0.5, 0.5), u(0.7, 1.5), u(-0.5, 1.5), u(-1.0, 1.0)
    nu, y = a4 + 1, (a2 + a3 * x) / math.sqrt(a3)
    ref = a3 ** (-nu / 2) * sp.gamma(nu) * math.exp(y * y / 4) * sp.pbdv(-nu, -y)[0]
    ops.append(_orbit_op(gen, "r1-(3,1)-half-line", (3, 1), 1, (eye(1) * x,),
                         (a2, a3, a4), "half-line", "reduce4", ref))

    # int_R u^n exp(b u - s u^2/2) du = sqrt(2 pi / s) exp(b^2 / 2s) E[X^n],
    # X ~ N(b/s, 1/s)
    a2, a3, n, x = u(-0.5, 0.5), u(0.7, 1.5), int(gen.integers(1, 4)), u(-1.0, 1.0)
    mu, var = (a2 + a3 * x) / a3, 1.0 / a3
    moment = (mu, mu * mu + var, mu**3 + 3 * mu * var)[n - 1]
    ref = math.sqrt(2 * math.pi / a3) * math.exp(a3 * mu * mu / 2) * moment
    ops.append(_orbit_op(gen, "r1-(3,1)-full-line", (3, 1), 1, (eye(1) * x,),
                         (a2, a3, float(n)), "full-line", "reduce4", ref))

    # the chart integrand is the Airy kernel at -u: 2 pi i Ai(-x)
    x = u(-1.0, 1.0)
    ops.append(_orbit_op(gen, "r1-(4,)-rotated-ray", (4,), 1, (eye(1) * x,),
                         (0.0, 0.0, 1.0), "rotated-ray", "reduce4",
                         2j * math.pi * sp.airy(-x)[0]))

    a2, a3, a4, a5 = u(-0.5, 1.5), u(-0.5, 1.5), u(-1.0, 1.0), u(-1.0, 1.0)
    x1 = _signed(gen, 0.15, 0.5)
    x2 = -x1 * u(0.5, 1.0)
    ref = rh.oracles.beta(a2 + 1, a3 + 1) * rh.lauricella_fd(
        a2 + 1, (-a4, -a5), a2 + a3 + 2, (x1, x2))
    ops.append(_orbit_op(gen, "r1-(1^5)-interval", (1, 1, 1, 1, 1), 1,
                         (eye(1) * x1, eye(1) * x2), (a2, a3, a4, a5), "interval-0-1",
                         "reduce_ones", ref))

    # outside the integrable range: the right outcome is a typed error
    a2, a3 = u(-2.5, -1.1), u(-0.5, 1.5)
    ops.append(_orbit_op(gen, "invalid-(1,1,1)-interval", (1, 1, 1), 1, (), (a2, a3),
                         "interval-0-1", "reduce3", 1.0, invalid=True))
    x = u(-1.0, 1.0)
    ops.append(_orbit_op(gen, "invalid-(3,1)-full-line", (3, 1), 1, (eye(1) * x,),
                         (0.0, u(-1.5, -0.8), 2.0), "full-line", "reduce4", 1.0,
                         invalid=True))

    # r = 2, 3, 4 through the eigenvalue reduction, scalar residual parameter
    for r in (2, 3, 4):
        a2, a3 = u(-0.5, 1.5), u(-0.5, 1.5)
        ops.append(_orbit_op(gen, f"r{r}-(1,1,1)", (1, 1, 1), r, (), (a2, a3),
                             "interval-0-1", "reduce3",
                             rh.beta_r_closed(r, a2 + r, a3 + r)))

        a2, a3 = u(-2.0, -0.5), u(-0.5, 1.5)
        ops.append(_orbit_op(gen, f"r{r}-(2,1)", (2, 1), r, (), (a2, a3), "half-line",
                             "reduce3",
                             rh.gamma_r_closed(r, a3 + r) * (-a2) ** (-(a3 + r) * r)))

        a2, a3, a4, x = u(-0.5, 1.5), u(-0.5, 1.5), u(-1.5, 1.0), _signed(gen, 0.15, 0.6)
        a, c = a2 + r, a2 + a3 + 2 * r
        ref = rh.beta_r_closed(r, a, c - a) * _andreief_ratio(
            r, a - r, c - a - r, lambda v: (1.0 - x * v) ** a4)
        ops.append(_orbit_op(gen, f"r{r}-(1,1,1,1)", (1, 1, 1, 1), r, (eye(r) * x,),
                             (a2, a3, a4), "interval-0-1", "reduce4", ref))
    return ops


# ----------------------------------------------------------------------
# mc-r2: Haar Monte Carlo estimates at r = 2
# ----------------------------------------------------------------------

def _check_mc(est, ref):
    if not _finite(est.value, est.abs_error_est):
        return {"err_over_tol": math.nan, "mc_z": math.nan}
    if ref is None:
        return {"err_over_tol": 0.0}
    z = abs(est.value - ref) / est.abs_error_est if est.abs_error_est > 0 else math.inf
    return {"err_over_tol": z / _MC_Z_MAX, "mc_z": z}


def _mc_named(kind, fam, chain, samples, stream_seed, ref):
    spec = rh.ChainSpec(chain, 2)
    stream = rh.RandomStream(stream_seed)

    def call():
        return rh.integrate_haar_mc(fam, spec, samples, stream)

    inputs = (fam.tag, repr(sorted(fam.params.items())), fam.X, chain, samples, stream_seed)
    return Op(kind, call, _check_mc, inputs, ref=ref)


def _mc_chart(kind, z, pw, chain, samples, stream_seed, ref):
    spec = rh.ChainSpec(chain, 2)
    budget = rh.Budget(samples=samples, stream=rh.RandomStream(stream_seed))

    def call():
        return rh.radon_hgf(z, pw, spec, budget)

    return Op(kind, call, _check_mc, (z.entries, pw.flat_alpha(), chain, samples, stream_seed),
              ref=ref)


def _positive_element(gen, lam, r):
    """Block-group element with positive scalar constant terms, so that
    chi(h) is continuous along the chain."""
    blocks = []
    for nk in lam:
        coeffs = [np.eye(r) * gen.uniform(0.5, 2.0)]
        coeffs += [0.8 * gen.standard_normal((r, r)) for _ in range(nk - 1)]
        blocks.append(rh.TruncPoly.from_list(coeffs))
    return rh.GroupElement(tuple(blocks))


def _mc_cycle(gen, warmup=False):
    r = 2
    u = gen.uniform
    samples = _MC_WARMUP_SAMPLES if warmup else _MC_SAMPLES
    large = _MC_WARMUP_SAMPLES if warmup else _MC_SAMPLES_LARGE
    seeds = iter(gen.integers(1, 2**62, size=16).tolist())
    ops = []

    fam = rh.NamedFamily("gaussian_r", {})
    ref = (2 * math.pi) ** (r / 2) * math.pi ** (r * (r - 1) / 2)
    ops.append(_mc_named("gaussian_r", fam, "full-line", samples, next(seeds), ref))

    a, b = u(2.2, 3.5), u(2.2, 3.5)
    fam = rh.NamedFamily("beta_r", {"a": a, "b": b})
    ops.append(_mc_named("beta_r", fam, "interval-0-1", samples, next(seeds),
                         rh.beta_r_closed(r, a, b)))

    a = u(2.2, 3.5)
    fam = rh.NamedFamily("gamma_r", {"a": a})
    ops.append(_mc_named("gamma_r", fam, "half-line", samples, next(seeds),
                         rh.gamma_r_closed(r, a)))

    a, ca, b, x = u(2.2, 3.0), u(2.2, 3.0), u(0.5, 1.5), u(-0.6, 0.6)
    fam = rh.NamedFamily("gauss", {"a": a, "b": b, "c": a + ca}, X=x * np.eye(r))
    ops.append(_mc_named("gauss-scalar", fam, "interval-0-1", samples, next(seeds),
                         rh.integrate_invariant(fam, r).value))

    a, ca, x = u(2.2, 3.0), u(2.2, 3.0), u(-1.0, 1.0)
    fam = rh.NamedFamily("kummer", {"a": a, "c": a + ca}, X=x * np.eye(r))
    ops.append(_mc_named("kummer-scalar", fam, "interval-0-1", samples, next(seeds),
                         rh.integrate_invariant(fam, r).value))

    w = gen.standard_normal((r, r)) + 1j * gen.standard_normal((r, r))
    herm = (w + w.conj().T) / 2
    X = 0.6 * herm / np.linalg.norm(herm, 2)
    fam = rh.NamedFamily("gauss", {"a": u(2.2, 3.0), "b": u(0.5, 1.5), "c": u(4.4, 6.0)}, X=X)
    ops.append(_mc_named("gauss-matrix", fam, "interval-0-1", samples, next(seeds), None))

    # chart fallback on z = nf . h: reference chi(h) F(nf). Positive
    # endpoint exponents keep the variance of the importance weights finite.
    a2, a3, a4, x = u(0.2, 1.5), u(0.2, 1.5), u(-1.5, 1.0), _signed(gen, 0.15, 0.6)
    a, c = a2 + r, a2 + a3 + 2 * r
    f_nf = rh.beta_r_closed(r, a, c - a) * _andreief_ratio(
        r, a - r, c - a - r, lambda v: (1.0 - x * v) ** a4)
    ops.append(_chart_nf_h(gen, "chart-nfh-(1,1,1,1)", (1, 1, 1, 1), (x,), (a2, a3, a4),
                           "interval-0-1", samples, next(seeds), f_nf))

    a2, a3, a4, x = u(0.5, 1.5), u(0.2, 1.5), u(0.2, 1.5), _signed(gen, 0.15, 1.0)
    f_nf = rh.beta_r_closed(r, a3 + r, a4 + r) * _andreief_ratio(
        r, a3, a4, lambda v: math.exp(a2 * x * v))
    ops.append(_chart_nf_h(gen, "chart-nfh-(2,1,1)", (2, 1, 1), (x,), (a2, a3, a4),
                           "interval-0-1", samples, next(seeds), f_nf))

    a2, a3 = u(0.2, 1.5), u(0.2, 1.5)
    ops.append(_chart_nf_h(gen, "chart-nfh-(1,1,1)", (1, 1, 1), (), (a2, a3),
                           "interval-0-1", samples, next(seeds),
                           rh.beta_r_closed(r, a2 + r, a3 + r)))

    a2, a3 = u(-2.0, -0.6), u(0.2, 1.5)
    ops.append(_chart_nf_h(gen, "chart-nfh-(2,1)", (2, 1), (), (a2, a3), "half-line",
                           samples, next(seeds),
                           rh.gamma_r_closed(r, a3 + r) * (-a2) ** (-(a3 + r) * r)))

    # chart fallback on general orbit points g . nf . h: finite value and error bar
    a2, a3, a4, x = u(-0.5, 1.5), u(-0.5, 1.5), u(-1.5, 1.0), _signed(gen, 0.15, 0.6)
    ops.append(_chart_orbit(gen, "chart-orbit-(1,1,1,1)", (1, 1, 1, 1), (x,), (a2, a3, a4),
                            samples, next(seeds)))
    a2, a3, a4, x = u(0.5, 1.5), u(-0.5, 1.5), u(-0.5, 1.5), _signed(gen, 0.15, 1.0)
    ops.append(_chart_orbit(gen, "chart-orbit-(2,1,1)", (2, 1, 1), (x,), (a2, a3, a4),
                            samples, next(seeds)))

    a, b = u(2.2, 3.5), u(2.2, 3.5)
    fam = rh.NamedFamily("beta_r", {"a": a, "b": b})
    ops.append(_mc_named("beta_r-large", fam, "interval-0-1", large, next(seeds),
                         rh.beta_r_closed(r, a, b)))
    return ops


def _chart_nf_h(gen, kind, lam, xs, free, chain, samples, stream_seed, f_nf):
    r = 2
    nf = rh.CoordMatrix(lam, r, rh.pattern(lam, r, tuple(x * np.eye(r) for x in xs)))
    pw = rh.PartitionWeight.from_flat(lam, _flat(lam, r, free), 2 * r, r, strict=False)
    h = _positive_element(gen, lam, r)
    ref = rh.chi_lambda(h, pw) * f_nf
    return _mc_chart(kind, rh.apply_group(nf, h=h), pw, chain, samples, stream_seed, ref)


def _chart_orbit(gen, kind, lam, xs, free, samples, stream_seed):
    r = 2
    nf = rh.CoordMatrix(lam, r, rh.pattern(lam, r, tuple(x * np.eye(r) for x in xs)))
    pw = rh.PartitionWeight.from_flat(lam, _flat(lam, r, free), 2 * r, r, strict=False)
    z = _orbit_point(gen, nf)
    return _mc_chart(kind, z, pw, "interval-0-1", samples, stream_seed, None)


def _fmt(lam):
    return "(" + ",".join(str(n) for n in lam) + ")"
