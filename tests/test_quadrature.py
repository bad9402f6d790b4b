import math

import numpy as np
import pytest

from radon_hgf.errors import UnsupportedCount
from radon_hgf.quadrature import genlaguerre, hermite_scaled, jacobi_01


def test_legendre_low_degree_exactness():
    nodes, weights = jacobi_01(2, 0, 0)
    val = np.sum(weights * nodes**2)
    assert abs(val - 1.0 / 3.0) < 1e-14


def test_legendre_high_degree():
    # degree 2n-1 polynomials are exact
    n = 10
    nodes, weights = jacobi_01(n, 0, 0)
    k = 2 * n - 1
    val = np.sum(weights * nodes**k)
    assert abs(val - 1.0 / (k + 1)) < 1e-12


def test_laguerre_cubic_moment():
    nodes, weights = genlaguerre(64, 0)
    val = np.sum(weights * nodes**3)
    assert abs(val - 6.0) < 1e-10


def test_hermite_total_mass():
    _, weights = hermite_scaled(64)
    assert abs(weights.sum() - math.sqrt(2.0 * math.pi)) < 1e-10


@pytest.mark.parametrize("rule, mass", [
    pytest.param(lambda n: jacobi_01(n, 0, 0), 1.0, id="legendre-on-(0,1)"),
    pytest.param(lambda n: genlaguerre(n, 0), 1.0, id="laguerre-on-(0,inf)"),
    pytest.param(hermite_scaled, math.sqrt(2 * math.pi), id="hermite-on-R"),
])
def test_weights_positive_and_mass(rule, mass):
    _, weights = rule(32)
    assert (weights > 0).all()
    assert abs(weights.sum() - mass) < 1e-13


@pytest.mark.parametrize("count", [0, 513])
def test_unsupported_count(count):
    for rule in (lambda n: jacobi_01(n, 0, 0), lambda n: genlaguerre(n, 0), hermite_scaled):
        with pytest.raises(UnsupportedCount):
            rule(count)


def test_jacobi_01_moments():
    # integral of u^p (1-u)^q u^k over (0,1) is B(p+k+1, q+1)
    from radon_hgf.oracles import beta

    p, q = 0.5, 1.5
    nodes, weights = jacobi_01(24, p, q)
    for k in (0, 1, 3):
        val = np.sum(weights * nodes**k)
        ref = beta(p + k + 1, q + 1).real
        assert abs(val - ref) < 1e-13


def test_genlaguerre_moments():
    from radon_hgf.oracles import gamma

    p = 0.5
    nodes, weights = genlaguerre(24, p)
    for k in (0, 2):
        val = np.sum(weights * nodes**k)
        assert abs(val - gamma(p + k + 1).real) < 1e-12
