"""Table forms at r = 2 and 3 against references computed without radon_hgf.

Each row evaluates ``radon_hgf`` at a table form, under ``method="auto"``,
and compares it with a value that no code path of ``radon_hgf`` computes:
a closed form, or QUADPACK moments in an Andreief determinant. A
deterministic estimate must lie within its bar, a Monte Carlo one within
5 sigma. A row that fails today is a strict xfail naming the ROADMAP item
that is to close it.
"""

import math
from itertools import accumulate

import numpy as np
import pytest
import scipy.integrate

from radon_hgf import CoordMatrix, PartitionWeight
from radon_hgf.integrate import Budget, ChainSpec, radon_hgf
from radon_hgf.normal_form import pattern
from radon_hgf.oracles import beta_r_closed, gamma_r_closed
from radon_hgf.rng import RandomStream


def _at_table_form(lam, r, rest, xs=(), kind="interval-0-1", budget=Budget()):
    """radon_hgf at lam's table form with the residuals xs I, at the flat
    weight (alpha_1, *rest) whose alpha_1 makes the leading weights sum to -2r."""
    flat = (-2 * r - sum(rest[i - 1] for i in accumulate(lam[:-1])),) + tuple(rest)
    z = CoordMatrix(lam, r, pattern(lam, r, tuple(x * np.eye(r) for x in xs)))
    pw = PartitionWeight.from_flat(lam, flat, 2 * r, r, strict=False)
    return radon_hgf(z, pw, ChainSpec(kind, r), budget)


def _andreief_ratio(r, p, q, f):
    """I(f) / I(1), where I(f) is the r-fold eigenvalue integral of
    prod_i u_i^p (1 - u_i)^q f(u_i) against the squared Vandermonde: by
    Andreief's identity the ratio of the determinants of the moments
    int_0^1 u^(j+k) u^p (1 - u)^q f(u) du, which QUADPACK's algebraic-weight
    rule evaluates."""

    def det_moments(g):
        m = [[scipy.integrate.quad(lambda u, k=j + k: u**k * g(u), 0.0, 1.0, weight="alg",
                                   wvar=(p, q), epsabs=0.0, epsrel=1e-13, limit=200)[0]
              for k in range(r)] for j in range(r)]
        return np.linalg.det(m)

    return det_moments(f) / det_moments(lambda u: 1.0)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("a2, a3", [
    (0.5, 0.6),
    # 6.7e-12 off (relative) at r = 2, against a bar of 6.3e-12: scipy's
    # Gauss-Jacobi rule for the weight u^-0.8 (1 - u)^0.3 integrates u to only
    # 1.4e-11 at 64 nodes, and its 32-node partner errs the same way
    pytest.param(-0.8, 0.3, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 7: the eigen-tensor bar, the difference of two Gauss-Jacobi "
               "rules, misses the error both share near an end singularity")),
    (0.4 + 0.3j, -0.2),
])
def test_matrix_beta_form(r, a2, a3):
    # (1, 1, 1) is the matrix beta integral B_r(alpha_2 + r, alpha_3 + r)
    est = _at_table_form((1, 1, 1), r, (a2, a3))
    ref = beta_r_closed(r, a2 + r, a3 + r)
    assert est.method == "eigen-tensor"
    assert abs(est.value - ref) <= est.abs_error_est


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("a2, a3", [(-1.0, 0.6), (-1.3, -0.7), (-0.8 + 0.5j, 0.4)])
def test_matrix_gamma_form(r, a2, a3):
    # (2, 1) is the matrix gamma integral at the decay rate -alpha_2:
    # Gamma_r(alpha_3 + r) (-alpha_2)^(-(alpha_3 + r) r)
    est = _at_table_form((2, 1), r, (a2, a3), kind="half-line")
    a = a3 + r
    ref = gamma_r_closed(r, a) * (-a2) ** (-a * r)
    assert est.method == "eigen-tensor"
    assert abs(est.value - ref) <= est.abs_error_est


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("rest, xs", [
    ((0.5, 0.6, -1.1, 0.4), (0.3, -0.5)),
    ((-0.45, 1.2, 0.7, -1.3), (0.6, 0.25)),
    ((0.3, -0.2, 0.5, -0.8, 1.1), (-0.4, 0.2, 0.55)),
    ((0.2, 0.4, -0.6, 0.3, -0.9, 0.5), (0.35, -0.3, 0.5, -0.45)),
])
def test_all_ones_form(r, rest, xs):
    # (1^n) at the residuals x_4 .. x_n is the matrix Lauricella F_D: the
    # integral of det u^alpha_2 det(1 - u)^alpha_3 prod_j det(1 - u x_j)^alpha_j,
    # B_r(alpha_2 + r, alpha_3 + r) times the Andreief ratio of its moments
    a2, a3, powers = rest[0], rest[1], rest[2:]
    est = _at_table_form((1,) * (len(rest) + 1), r, rest, xs)
    ref = beta_r_closed(r, a2 + r, a3 + r) * _andreief_ratio(
        r, a2, a3, lambda u: math.prod((1 - x * u) ** b for x, b in zip(xs, powers)))
    assert est.method == "eigen-tensor"
    assert abs(est.value - ref) <= est.abs_error_est


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 22: (3,) has no named family, and the chart Monte "
                          "Carlo's normal law has lighter tails than the form's Gaussian")
@pytest.mark.parametrize("r", [2, 3])
def test_gaussian_form(r):
    # the (3,) chart integrand at U is exp(alpha_2 Tr U - alpha_3 Tr U^2 / 2);
    # Mehta's Gaussian integral gives c_r e^(r alpha_2^2 / (2 alpha_3))
    # alpha_3^(-r^2 / 2) (2 pi)^(r / 2) prod_{j <= r} j!, with
    # c_r = pi^(r (r - 1) / 2) / prod_{j <= r} j!: 773.931... at r = 2
    a2, a3 = 0.3, 0.2
    est = _at_table_form((3,), r, (a2, a3), kind="full-line",
                         budget=Budget(samples=2**16, stream=RandomStream(1)))
    ref = (math.pi ** (r * (r - 1) / 2) * math.exp(r * a2**2 / (2 * a3))
           * a3 ** (-r * r / 2) * (2 * math.pi) ** (r / 2))
    assert abs(est.value - ref) <= 5 * est.abs_error_est
