"""Known defects, one strict xfail each.

Each test states the right outcome: the true value, or the typed error
that the input should raise. A strict xfail fails the run once its defect
is gone, so the change that mends it moves the test into the ordinary
suite. The reason names the ROADMAP item that is to close it.
"""

import cmath
import math

import numpy as np
import pytest
import scipy.special as sp

from radon_hgf import CoordMatrix, NamedFamily, PartitionWeight
from radon_hgf.errors import OnBranchLocus
from radon_hgf.integrate import ChainSpec, integrate_r1, radon_hgf
from radon_hgf.normal_form import pattern
from radon_hgf.oracles import beta


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: nodes whose offset rounds to an endpoint are "
                          "dropped, which loses the stretch where (1 - u)^-0.7 is largest")
def test_r1_interval_with_strong_endpoint_singularity_is_within_its_error():
    # off by 1.0e-5 relative, while claiming 5.1e-12
    est = integrate_r1(NamedFamily("beta_r", {"a": 0.5, "b": 0.3}),
                       ChainSpec("interval-0-1", 1), tol=1e-12)
    assert abs(est.value - beta(0.5, 0.3)) <= est.abs_error_est


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: each ray loses the stretch where 1 - s rounds "
                          "to 0 at its far end, where the weight is (1 - s)^-0.8")
def test_rotated_ray_chart_point_has_its_true_value():
    # the point of test_chart_chain_kinds_keep_their_mesh[rotated-ray], which
    # pins the value 0.27658318042210567j that this integrator gives; the
    # true value is the mpmath quadrature of the two rays
    z = CoordMatrix((1, 1, 1, 1), 1, np.array([[1.0, 0.5, -1.0, 2.0], [0.0, 1.0, 2.0, 1.0]]))
    pw = PartitionWeight.from_flat((1, 1, 1, 1), (-0.8, -0.3, 0.4, -1.3), 2, 1, strict=False)
    est = radon_hgf(z, pw, ChainSpec("rotated-ray", 1))
    assert abs(est.value - 0.2735149953572178j) <= est.abs_error_est


@pytest.mark.xfail(strict=True, raises=OnBranchLocus,
                   reason="ROADMAP item 4: the chart integrand grows along the rotated "
                          "rays that suit the Airy kernel")
@pytest.mark.parametrize("x", [-0.5, 0.4])
def test_airy_table_form_at_r1_is_the_airy_function(x):
    # the (4,) table form's chart integrand is the Airy kernel at -u
    z = CoordMatrix((4,), 1, pattern((4,), 1, (np.array([[x]]),)))
    pw = PartitionWeight.from_flat((4,), (-2.0, 0.0, 0.0, 1.0), 2, 1, strict=False)
    ref = 2j * math.pi * sp.airy(-x)[0]
    est = radon_hgf(z, pw, ChainSpec("rotated-ray", 1))
    assert abs(est.value - ref) <= max(est.abs_error_est, 1e-10 * abs(ref))


@pytest.mark.xfail(strict=True, raises=OnBranchLocus,
                   reason="ROADMAP items 20 and 2: the ray's first node rounds onto the "
                          "root of block 2 at its origin")
def test_half_line_whose_origin_node_rounds_onto_a_root_has_its_true_value():
    # the ray runs from block 2's root -0.5 to block 1's root -0.1; its first
    # node has y of about 7e-25, so u == -0.5 exactly. The modulus is the
    # QUADPACK algebraic-weight integral (scipy.integrate.quad, weight='alg',
    # wvar=(-0.3, -0.8)) of (1 - 2u)^0.4 (2 + u)^-1.3 over [-0.5, -0.1]; the
    # phase e^(-0.4 pi i) comes from the principal logs of blocks 1 and 3
    z = CoordMatrix((1, 1, 1, 1), 1, np.array([[0.1, 0.5, -1.0, 2.0], [1.0, 1.0, 2.0, 1.0]]))
    pw = PartitionWeight.from_flat((1, 1, 1, 1), (-0.8, -0.3, 0.4, -1.3), 2, 1, strict=False)
    ref = 3.2433864805294688 * cmath.exp(-0.4j * math.pi)
    est = radon_hgf(z, pw, ChainSpec("half-line", 1))
    assert abs(est.value - ref) <= max(est.abs_error_est, 1e-10 * abs(ref))
