"""Command-line interface.

Every subcommand prints exactly one JSON report on stdout:

    {"command": ..., "inputs": ..., "results": ..., "checks": [...],
     "pass": ..., "wall_time_s": ..., "seed": ..., "version": ...}

Exit codes: 0 all requested checks pass, 1 a check failed, 2 malformed
input.  RADON_HGF_THREADS caps worker threads.
"""

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .acceptance import run_all
from .characters import PartitionWeight, chi_lambda
from .errors import RadonHGFError
from .grassmann import CoordMatrix, z_lambda_member
from .hgs import StencilPlan, all_pairs, verify_system
from .integrands import FAMILIES, NamedFamily
from .integrate import (
    Budget,
    ChainSpec,
    integrate_haar_mc,
    integrate_invariant,
    integrate_r1,
    radon_hgf,
)
from .io import (
    complex_to_json,
    element_from_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
)
from .ncpoly import theta_symbolic
from .normal_form import reduce3, reduce4, reduce_ones
from .oracles import beta_r_closed, gamma, gamma_r_closed, gauss_2f1
from .rng import RandomStream

def _partition(text):
    return tuple(int(v) for v in text.split(","))


def _alpha_arg(args, lam):
    if getattr(args, "alpha_json", None):
        blocks = load_json(args.alpha_json)
        from .io import alpha_from_json

        return alpha_from_json(blocks, lam)
    flat = [complex(v) for v in args.alpha.split(",")]
    if len(flat) != sum(lam):
        raise ValueError(f"expected {sum(lam)} weight entries")
    out, pos = [], 0
    for nk in lam:
        out.append(tuple(flat[pos : pos + nk]))
        pos += nk
    return tuple(out)


def _estimate_json(est):
    return est.as_dict()


def cmd_theta(args):
    ts = theta_symbolic(args.p)
    rendered = {
        str(k + 1): th.render(latex=args.latex) for k, th in enumerate(ts.symbolic)
    }
    return {"theta": rendered}, None, None


def cmd_chi(args):
    lam = _partition(args.partition)
    alpha = _alpha_arg(args, lam) if (args.alpha or args.alpha_json) else None
    if alpha is None:
        raise ValueError("weights required: --alpha or --alpha-json")
    pw = PartitionWeight(lam, alpha, args.m, args.r, strict=not args.relaxed)
    h = element_from_json(load_json(args.element_json), lam, args.r)
    value = chi_lambda(h, pw)
    return {"value": complex_to_json(value)}, None, None


def cmd_zcheck(args):
    lam = _partition(args.partition)
    z = CoordMatrix(lam, args.r, matrix_from_json(load_json(args.z_json)))
    res = z_lambda_member(z)
    return {
        "member": res.member,
        "failing": [list(mu.mu) for mu in res.failing],
    }, None, None


def cmd_normal_form(args):
    lam = _partition(args.partition)
    z = CoordMatrix(lam, args.r, matrix_from_json(load_json(args.z_json)))
    n = z.n
    if n == 3:
        out = reduce3(z)
    elif all(v == 1 for v in lam) and n > 4:
        out = reduce_ones(z)
    elif n == 4:
        out = reduce4(z, args.variant)
    else:
        raise ValueError(f"no reduction for partition {lam}")
    from .io import element_to_json

    return {
        "form_id": out.form_id,
        "residual": out.residual,
        "g": matrix_to_json(out.g),
        "h": element_to_json(out.h),
        "x": [matrix_to_json(x) for x in out.x],
    }, None, None


def _family_from_args(args):
    params = {}
    for key in ("a", "b", "c"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = complex(val)
    if args.bs:
        params["bs"] = tuple(complex(v) for v in args.bs.split(","))
    X = matrix_from_json(load_json(args.X_json)) if args.X_json else None
    xs = ()
    if args.xs_json:
        xs = tuple(matrix_from_json(m) for m in load_json(args.xs_json))
    return NamedFamily(args.family, params, X=X, xs=xs)


def cmd_eval(args):
    fam = _family_from_args(args)
    chain = ChainSpec(args.chain or FAMILIES[args.family].chains[0], args.r)
    method = args.method
    if method == "auto":
        method = "adaptive-1d" if args.r == 1 else "eigen-tensor"
    if method == "adaptive-1d":
        est = integrate_r1(fam, chain, tol=args.tol)
    elif method == "eigen-tensor":
        est = integrate_invariant(fam, args.r, nodes=args.nodes)
    elif method == "haar-mc":
        est = integrate_haar_mc(fam, chain, int(float(args.samples)),
                                RandomStream(args.seed), r=args.r)
    else:
        raise ValueError(f"unknown method {method}")
    return {"estimate": _estimate_json(est)}, None, args.seed


def cmd_radon(args):
    lam = _partition(args.partition)
    alpha = _alpha_arg(args, lam)
    m = args.m if args.m else 2 * args.r
    pw = PartitionWeight(lam, alpha, m, args.r, strict=not args.relaxed)
    z = CoordMatrix(lam, args.r, matrix_from_json(load_json(args.z_json)))
    chain = ChainSpec(args.chain, args.r)
    budget = Budget(tol=args.tol, nodes=args.nodes,
                    samples=int(float(args.samples)),
                    stream=RandomStream(args.seed))
    est = radon_hgf(z, pw, chain, budget, method=args.method)
    return {"estimate": _estimate_json(est)}, None, args.seed


def cmd_verify_gamma(args):
    est = integrate_invariant(NamedFamily("gamma_r", {"a": complex(args.a)}),
                              args.r, nodes=args.nodes)
    ref = gamma_r_closed(args.r, complex(args.a))
    rel = abs(est.value - ref) / abs(ref)
    checks = [{"name": "matrix gamma identity", "pass": bool(rel < 1e-8)}]
    return {
        "estimate": _estimate_json(est),
        "closed_form": complex_to_json(ref),
        "relative_error": rel,
    }, checks, None


def cmd_verify_beta(args):
    fam = NamedFamily("beta_r", {"a": complex(args.a), "b": complex(args.b)})
    est = integrate_invariant(fam, args.r, nodes=args.nodes)
    ref = beta_r_closed(args.r, complex(args.a), complex(args.b))
    rel = abs(est.value - ref) / abs(ref)
    checks = [{"name": "matrix beta identity", "pass": bool(rel < 1e-8)}]
    return {
        "estimate": _estimate_json(est),
        "closed_form": complex_to_json(ref),
        "relative_error": rel,
    }, checks, None


def cmd_verify_classical(args):
    a, b, c = 0.7, 1.3, 2.1
    pref = gamma(c) / (gamma(a) * gamma(c - a))
    worst = 0.0
    for x in (-0.4, 0.1, 0.45):
        fam = NamedFamily("gauss", {"a": a, "b": b, "c": c}, X=np.array([[x]]))
        est = integrate_r1(fam, ChainSpec("interval-0-1", 1), tol=1e-12)
        ref = gauss_2f1(a, b, c, x)
        worst = max(worst, abs(pref * est.value - ref) / abs(ref))
    checks = [{"name": "scalar 2F1 reduction", "pass": bool(worst < 1e-7)}]
    return {"worst_relative_error": worst}, checks, None


def cmd_verify_covariance(args):
    from .acceptance import criterion_10

    res = criterion_10()
    checks = [{"name": res.name, "pass": res.passed}]
    return {"detail": res.detail}, checks, None


def cmd_verify_pde(args):
    lam = _partition(args.partition)
    alpha = _alpha_arg(args, lam)
    pw = PartitionWeight(lam, alpha, 2 * args.r, args.r, strict=not args.relaxed)
    z = CoordMatrix(lam, args.r, matrix_from_json(load_json(args.z_json)))
    chain = ChainSpec(args.chain, args.r)

    def F(zz):
        return radon_hgf(zz, pw, chain, Budget(tol=args.tol)).value

    pairs = all_pairs(z.m, z.N, args.r)
    report = verify_system(F, z, pairs, StencilPlan(h=args.h), rel_tol=args.rel_tol)
    checks = [{"name": "annihilating system", "pass": report["pass"]}]
    return report, checks, None


def cmd_suite(args):
    numbers = None
    if args.criteria:
        numbers = {int(v) for v in args.criteria.split(",")}
    results = run_all(numbers)
    checks = []
    for res in results:
        line = f"[{'PASS' if res.passed else 'FAIL'}] criterion {res.number:2d}: " \
               f"{res.name} ({res.seconds:.2f}s of {res.limit_s:g}s) - {res.detail}"
        print(line, file=sys.stderr)
        checks.append({
            "name": f"criterion {res.number}: {res.name}",
            "pass": res.passed,
            "detail": res.detail,
            "seconds": res.seconds,
            "limit_s": res.limit_s,
        })
    return {"level": args.level, "criteria_run": len(results)}, checks, None


def build_parser():
    p = argparse.ArgumentParser(
        prog="radon-hgf",
        description="Hypergeometric integrals on Grassmannians: evaluation, "
                    "normal forms, and verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("theta", help="print the graded log components")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--latex", action="store_true")
    q.set_defaults(fn=cmd_theta)

    q = sub.add_parser("chi", help="evaluate a block-group character")
    q.add_argument("--partition", required=True)
    q.add_argument("--r", type=int, default=1)
    q.add_argument("--m", type=int, default=2)
    q.add_argument("--alpha")
    q.add_argument("--alpha-json")
    q.add_argument("--element-json", required=True)
    q.add_argument("--relaxed", action="store_true")
    q.set_defaults(fn=cmd_chi)

    q = sub.add_parser("zcheck", help="weight-2 subdiagram minor test")
    q.add_argument("--partition", required=True)
    q.add_argument("--r", type=int, default=1)
    q.add_argument("--z-json", required=True)
    q.set_defaults(fn=cmd_zcheck)

    q = sub.add_parser("normal-form", help="orbit reduction to the table form")
    q.add_argument("--partition", required=True)
    q.add_argument("--r", type=int, default=1)
    q.add_argument("--z-json", required=True)
    q.add_argument("--variant", type=int, default=1)
    q.set_defaults(fn=cmd_normal_form)

    q = sub.add_parser("eval", help="evaluate a named matrix-integral family")
    q.add_argument("--family", required=True, choices=sorted(FAMILIES))
    q.add_argument("--r", type=int, default=1)
    q.add_argument("--a")
    q.add_argument("--b")
    q.add_argument("--c")
    q.add_argument("--bs", help="comma-separated exponents (many-variable family)")
    q.add_argument("--X-json")
    q.add_argument("--xs-json")
    q.add_argument("--method", default="auto",
                   choices=["auto", "adaptive-1d", "eigen-tensor", "haar-mc"])
    q.add_argument("--chain", choices=["interval-0-1", "half-line", "full-line",
                                       "rotated-ray"])
    q.add_argument("--samples", default="1e6")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--nodes", type=int, default=64)
    q.add_argument("--tol", type=float, default=1e-10)
    q.set_defaults(fn=cmd_eval)

    q = sub.add_parser("radon", help="evaluate the Grassmannian integral")
    q.add_argument("--partition", required=True)
    q.add_argument("--r", type=int, default=1)
    q.add_argument("--m", type=int)
    q.add_argument("--alpha")
    q.add_argument("--alpha-json")
    q.add_argument("--z-json", required=True)
    q.add_argument("--chain", required=True,
                   choices=["interval-0-1", "half-line", "full-line", "rotated-ray"])
    q.add_argument("--method", default="auto",
                   choices=["auto", "eigen-tensor", "haar-mc"])
    q.add_argument("--relaxed", action="store_true")
    q.add_argument("--samples", default="1e6")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--nodes", type=int, default=64)
    q.add_argument("--tol", type=float, default=1e-10)
    q.set_defaults(fn=cmd_radon)

    q = sub.add_parser("verify-gamma", help="matrix gamma identity check")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--a", required=True)
    q.add_argument("--nodes", type=int, default=64)
    q.set_defaults(fn=cmd_verify_gamma)

    q = sub.add_parser("verify-beta", help="matrix beta identity check")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--nodes", type=int, default=64)
    q.set_defaults(fn=cmd_verify_beta)

    q = sub.add_parser("verify-classical", help="scalar series reduction check")
    q.set_defaults(fn=cmd_verify_classical)

    q = sub.add_parser("verify-covariance", help="group covariance check")
    q.set_defaults(fn=cmd_verify_covariance)

    q = sub.add_parser("verify-pde", help="annihilating-system residuals")
    q.add_argument("--partition", required=True)
    q.add_argument("--r", type=int, default=1)
    q.add_argument("--alpha")
    q.add_argument("--alpha-json")
    q.add_argument("--z-json", required=True)
    q.add_argument("--chain", default="interval-0-1",
                   choices=["interval-0-1", "half-line", "full-line", "rotated-ray"])
    q.add_argument("--h", type=float, default=1e-3)
    q.add_argument("--rel-tol", type=float, default=1e-4)
    q.add_argument("--tol", type=float, default=5e-13)
    q.add_argument("--relaxed", action="store_true")
    q.set_defaults(fn=cmd_verify_pde)

    q = sub.add_parser("suite", help="run the acceptance criteria")
    q.add_argument("--level", default="desk", choices=["desk"])
    q.add_argument("--criteria", help="comma-separated criterion numbers")
    q.set_defaults(fn=cmd_suite)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    report = {
        "command": args.command,
        "inputs": {
            k: v for k, v in vars(args).items() if k not in ("fn",) and v is not None
        },
        "version": __version__,
    }
    try:
        results, checks, seed = args.fn(args)
    except (RadonHGFError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        report["pass"] = False
        report["wall_time_s"] = time.time() - t0
        print(json.dumps(report, indent=2, default=str))
        return 2
    report["results"] = results
    report["checks"] = checks or []
    report["pass"] = all(c["pass"] for c in report["checks"]) if checks else True
    report["seed"] = seed
    report["wall_time_s"] = time.time() - t0
    print(json.dumps(report, indent=2, default=str))
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
