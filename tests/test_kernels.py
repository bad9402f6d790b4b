"""The numeric kernels: the batched squared Vandermonde, and the r-fold
sum against the squared Vandermonde, evaluated through Andreief's identity
with the sum of its absolute terms."""

import itertools
import math

import numpy as np
import pytest

from radon_hgf import _kernels as K
from radon_hgf.characters import PartitionWeight
from radon_hgf.errors import UnsupportedCount
from radon_hgf.grassmann import CoordMatrix
from radon_hgf.integrands import NamedFamily
from radon_hgf.integrate import ChainSpec, integrate_invariant, radon_hgf
from radon_hgf.normal_form import pattern
from radon_hgf.oracles import beta_r_closed, gamma_r_closed
from radon_hgf.quadrature import genlaguerre, hermite_scaled, jacobi_01
from radon_hgf.rng import RandomStream


def _heine_determinant(wg, lam, r):
    # independent oracle: the symmetrized tensor sum against the squared
    # Vandermonde equals r! times the Hankel moment determinant
    mom = [np.sum(wg * lam**k) for k in range(2 * r)]
    m = np.array([[mom[i + j] for j in range(r)] for i in range(r)])
    return math.factorial(r) * np.linalg.det(m)


def _brute_force(wg, lam, r):
    # independent oracle: the sum itself, one term per node tuple
    ref = 0.0 + 0.0j
    for k in itertools.product(range(len(wg)), repeat=r):
        term = complex(np.prod(wg[list(k)]))
        for i, j in itertools.combinations(k, 2):
            term *= (lam[j] - lam[i]) ** 2
        ref += term
    return ref


def _random_rule(seed, n):
    gen = RandomStream(seed).generator()
    wg = (gen.random(n) + 0.1) * (gen.standard_normal(n) + 1j * gen.standard_normal(n))
    return wg, gen.standard_normal(n)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_tensor_sum_matches_moment_determinant(r):
    # also checked against the brute-force sum on the same rule
    wg, lam = _random_rule(91, 6)
    val, _ = K.tensor_vdm_sum(wg, lam, r)
    for ref in (_heine_determinant(wg, lam, r), _brute_force(wg, lam, r)):
        assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))


def _rule(kind, n):
    if kind == "jacobi":
        return jacobi_01(n, 0.3, -0.4)
    if kind == "laguerre":
        return genlaguerre(n, 1.5)
    return hermite_scaled(n)


@pytest.mark.parametrize("kind", ["jacobi", "laguerre", "hermite"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_absolute_term_sum_is_the_sum_at_the_absolute_weights(kind, r):
    # the product of the squared norms of the orthogonal basis against the
    # Gram determinant of the same sum at |wg|; the weights change sign
    for n in (r + 1, 32, 64):
        lam, w = _rule(kind, n)
        wg = w * (np.cos(3.0 * lam) + 0.5j * np.sin(2.0 * lam))
        _, absolute = K.tensor_vdm_sum(wg, lam, r)
        ref, _ = K.tensor_vdm_sum(np.abs(wg), lam, r)
        assert ref.imag == 0.0 and ref.real > 0.0
        assert abs(absolute - ref.real) <= 1e-13 * ref.real


def test_vdm_sq_batch_agree():
    # spot check one row by hand
    lams = RandomStream(93).generator().standard_normal((100, 3))
    x, y, z = lams[0]
    byhand = ((y - x) * (z - x) * (z - y)) ** 2
    assert abs(K.vdm_sq_batch(lams)[0] - byhand) < 1e-12 * max(1.0, abs(byhand))


@pytest.mark.parametrize("r", range(1, 9))
def test_invariant_matches_closed_forms(r):
    a, b = r + 0.35, r - 0.4
    est = integrate_invariant(NamedFamily("beta_r", {"a": a, "b": b}), r, nodes=64)
    ref = beta_r_closed(r, a, b)
    assert abs(est.value - ref) <= 1e-11 * abs(ref)
    # a 64-node and a 32-node rule, whatever r
    assert est.nodes_or_samples == 96
    est = integrate_invariant(NamedFamily("gamma_r", {"a": a}), r, nodes=64)
    ref = gamma_r_closed(r, a)
    assert abs(est.value - ref) <= 1e-11 * abs(ref)


def test_radon_eigen_tensor_r5():
    a2, a3, r = 0.5, 1.5, 5
    pw = PartitionWeight((1, 1, 1), ((-2 * r - a2 - a3,), (a2,), (a3,)), 2 * r, r,
                         strict=False)
    z = CoordMatrix((1, 1, 1), r, pattern((1, 1, 1), r))
    est = radon_hgf(z, pw, ChainSpec("interval-0-1", r))
    ref = beta_r_closed(r, a2 + r, a3 + r)
    assert est.method == "eigen-tensor"
    assert abs(est.value - ref) <= 1e-11 * abs(ref)


def test_fewer_nodes_than_eigenvalues_raises():
    wg, lam = _random_rule(94, 3)
    with pytest.raises(UnsupportedCount):
        K.tensor_vdm_sum(wg, lam, 4)
    with pytest.raises(UnsupportedCount):
        integrate_invariant(NamedFamily("gamma_r", {"a": 5.5}), 5, nodes=4)


def test_fewer_nonzero_weights_than_eigenvalues_sum_to_zero():
    wg, lam = _random_rule(95, 6)
    wg[2:] = 0.0
    assert K.tensor_vdm_sum(wg, lam, 3) == (0.0, 0.0)
    assert _brute_force(wg, lam, 3) == 0.0
