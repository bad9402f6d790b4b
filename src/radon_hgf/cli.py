"""Command-line interface.

Every subcommand prints exactly one JSON report on stdout:

    {"command": ..., "inputs": ..., "results": ..., "checks": [...],
     "pass": ..., "wall_time_s": ..., "seed": ..., "version": ...}

Exit codes: 0 all requested checks pass, 1 a check failed, 2 malformed
input.  RADON_HGF_THREADS caps the Monte Carlo worker threads.
"""

import argparse
import json
import math
import sys
import time

from . import __version__
from .acceptance import (BETA_RTOL, GAMMA_RTOL, closed_form_check, criterion_3, criterion_4,
                         criterion_6, criterion_10, run_all)
from .characters import PartitionWeight, chi_lambda
from .errors import RadonHGFError
from .grassmann import CoordMatrix, z_lambda_member
from .hgs import StencilPlan, all_pairs, verify_system
from .integrands import CHAIN_KINDS, FAMILIES, NamedFamily
from .integrate import Budget, ChainSpec, integrate_family, radon_hgf
from .io import (
    alpha_from_json,
    complex_to_json,
    element_from_json,
    element_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
)
from .ncpoly import theta_symbolic
from .normal_form import reduce_orbit
from .rng import RandomStream

def _partition(text):
    return tuple(int(v) for v in text.split(","))


def _weight_arg(args, lam, m):
    """The partition weight of --alpha (flat, comma-separated) or --alpha-json."""
    strict = not args.relaxed
    if args.alpha_json:
        alpha = alpha_from_json(load_json(args.alpha_json), lam)
        return PartitionWeight(lam, alpha, m, args.r, strict)
    if args.alpha:
        flat = [complex(v) for v in args.alpha.split(",")]
        return PartitionWeight.from_flat(lam, flat, m, args.r, strict)
    raise ValueError("weights required: --alpha or --alpha-json")


def cmd_theta(args):
    ts = theta_symbolic(args.p)
    rendered = {
        str(k + 1): th.render(latex=args.latex) for k, th in enumerate(ts.symbolic)
    }
    return {"theta": rendered}, None, None


def cmd_chi(args):
    lam = _partition(args.partition)
    pw = _weight_arg(args, lam, args.m)
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
    out = reduce_orbit(z, args.variant)
    return {
        "form_id": out.form_id,
        "residual": out.residual,
        "g": matrix_to_json(out.g),
        "h": element_to_json(out.h),
        "x": [matrix_to_json(x) for x in out.x],
    }, None, None


def _family_from_args(args):
    params = {key: complex(getattr(args, key)) for key in ("a", "b", "c")
              if getattr(args, key) is not None}
    if args.bs:
        params["bs"] = tuple(complex(v) for v in args.bs.split(","))
    X = matrix_from_json(load_json(args.X_json)) if args.X_json else None
    xs = tuple(matrix_from_json(m) for m in load_json(args.xs_json)) if args.xs_json else ()
    return NamedFamily(args.family, params, X=X, xs=xs)


def cmd_eval(args):
    fam = _family_from_args(args)
    chain = ChainSpec(args.chain or FAMILIES[args.family].chains[0], args.r)
    budget = Budget(tol=args.tol, nodes=args.nodes, samples=args.samples,
                    stream=RandomStream(args.seed))
    est = integrate_family(fam, chain, budget, method=args.method)
    return {"estimate": est.as_dict()}, None, args.seed


def cmd_radon(args):
    lam = _partition(args.partition)
    pw = _weight_arg(args, lam, args.m if args.m else 2 * args.r)
    z = CoordMatrix(lam, args.r, matrix_from_json(load_json(args.z_json)))
    chain = ChainSpec(args.chain, args.r)
    budget = Budget(tol=args.tol, nodes=args.nodes, samples=args.samples,
                    stream=RandomStream(args.seed))
    est = radon_hgf(z, pw, chain, budget, method=args.method)
    return {"estimate": est.as_dict()}, None, args.seed


def _closed_form_report(criterion, bound, tag, args, params):
    est, ref, rel = closed_form_check(tag, args.r, params, args.nodes)
    checks = [{"name": criterion.name, "pass": bool(rel < bound)}]
    return {"estimate": est.as_dict(), "closed_form": complex_to_json(ref),
            "relative_error": rel}, checks, None


def cmd_verify_gamma(args):
    return _closed_form_report(criterion_3, GAMMA_RTOL, "gamma_r", args, {"a": complex(args.a)})


def cmd_verify_beta(args):
    params = {"a": complex(args.a), "b": complex(args.b)}
    return _closed_form_report(criterion_4, BETA_RTOL, "beta_r", args, params)


def _criterion_command(criterion):
    """A subcommand that runs one acceptance criterion as the suite does."""
    def cmd(args):
        res = criterion()
        return {"detail": res.detail}, [{"name": res.name, "pass": res.passed}], None
    return cmd


def cmd_verify_pde(args):
    lam = _partition(args.partition)
    pw = _weight_arg(args, lam, 2 * args.r)
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


def _sample_count(text: str) -> int:
    """A finite whole number of samples, also in float notation such as 1e6."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value.is_integer()):
        raise argparse.ArgumentTypeError(f"expected a finite whole number, got {text!r}")
    return int(value)


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
    q.add_argument("--chain", choices=CHAIN_KINDS)
    q.add_argument("--samples", type=_sample_count, default="1e6")
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
    q.add_argument("--chain", required=True, choices=CHAIN_KINDS)
    q.add_argument("--method", default="auto",
                   choices=["auto", "eigen-tensor", "haar-mc"])
    q.add_argument("--relaxed", action="store_true")
    q.add_argument("--samples", type=_sample_count, default="1e6")
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
    q.set_defaults(fn=_criterion_command(criterion_6))

    q = sub.add_parser("verify-covariance", help="group covariance check")
    q.set_defaults(fn=_criterion_command(criterion_10))

    q = sub.add_parser("verify-pde", help="annihilating-system residuals")
    q.add_argument("--partition", required=True)
    q.add_argument("--r", type=int, default=1)
    q.add_argument("--alpha")
    q.add_argument("--alpha-json")
    q.add_argument("--z-json", required=True)
    q.add_argument("--chain", default="interval-0-1", choices=CHAIN_KINDS)
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
