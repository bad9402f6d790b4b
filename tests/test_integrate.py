import cmath
import math
import re
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special as sp

from radon_hgf.characters import GroupElement, PartitionWeight, chi_lambda
from radon_hgf import grassmann, integrate, normal_form
from radon_hgf.errors import (
    BranchCutWarning,
    DivergentEndpoint,
    IncompatibleChain,
    NonConvergent,
    NotInvariant,
    NotInZLambda,
    OnBranchLocus,
    RadonHGFError,
    ShapeMismatch,
    UnsupportedCount,
    UnsupportedPartition,
)
from radon_hgf.grassmann import CoordMatrix, apply_group
from radon_hgf.hgs import MultiIndexPair, StencilPlan, all_pairs, apply_DIJ, verify_system
from radon_hgf.integrands import FAMILIES, NamedFamily, family_of_normal_form, named_integrand_batch
from radon_hgf.jordan import TruncPoly
from radon_hgf.integrate import (
    Budget,
    ChainSpec,
    Ray,
    RayPair,
    Segment,
    integrate_haar_mc,
    integrate_invariant,
    integrate_pieces,
    integrate_r1,
    radon_hgf,
    scalar_chart_function,
    weyl_constant,
)
from radon_hgf.acceptance import _LAM3_CHAIN, _LAM3_WEIGHTS
from radon_hgf.normal_form import pattern, reduce_orbit
from radon_hgf.oracles import beta_r_closed, gamma, gamma_r_closed, gauss_2f1
from radon_hgf.rng import RandomStream


def test_beta_example():
    fam = NamedFamily("beta_r", {"a": 2.0, "b": 3.0})
    est = integrate_r1(fam, ChainSpec("interval-0-1", 1), tol=1e-12)
    assert abs(est.value - 1.0 / 12.0) < 1e-12
    # the reported error bound is honest
    assert abs(est.value - 1.0 / 12.0) <= max(est.abs_error_est, 1e-14)


def test_gaussian_sqrt_two_pi():
    fam = NamedFamily("gaussian_r", {})
    est = integrate_r1(fam, ChainSpec("full-line", 1), tol=1e-12)
    assert abs(est.value - math.sqrt(2 * math.pi)) < 1e-10


def test_gauss_family_vs_series():
    a, b, c, x = 1.0, 2.0, 3.0, 0.5
    fam = NamedFamily("gauss", {"a": a, "b": b, "c": c}, X=np.array([[x]]))
    est = integrate_r1(fam, ChainSpec("interval-0-1", 1), tol=1e-12)
    pref = gamma(c) / (gamma(a) * gamma(c - a))
    ref = gauss_2f1(a, b, c, x)
    assert abs(pref * est.value - ref) < 1e-8 * abs(ref)


def test_gauss_family_singular_endpoints():
    # exponents below zero exercise the endpoint substitution
    a, b, c, x = 0.35, 1.1, 1.2, -0.3
    fam = NamedFamily("gauss", {"a": a, "b": b, "c": c}, X=np.array([[x]]))
    est = integrate_r1(fam, ChainSpec("interval-0-1", 1), tol=1e-12)
    pref = gamma(c) / (gamma(a) * gamma(c - a))
    ref = gauss_2f1(a, b, c, x)
    assert abs(pref * est.value - ref) < 1e-9 * abs(ref)


def test_airy_vs_scipy():
    # the ray-pair integral equals 2 pi i Ai(x)
    for x in (0.3, -0.5):
        fam = NamedFamily("airy", {}, X=np.array([[x]]))
        est = integrate_r1(fam, ChainSpec("rotated-ray", 1), tol=1e-11)
        ref = 2j * np.pi * sp.airy(x)[0]
        assert abs(est.value - ref) < 1e-9 * abs(ref)


def test_bessel_vs_scipy():
    x, c = -1.1, 0.8
    fam = NamedFamily("bessel", {"c": c}, X=np.array([[x]]))
    est = integrate_r1(fam, ChainSpec("half-line", 1), tol=1e-11)
    p = -x
    ref = 2 * p ** (-c / 2) * sp.kv(c, 2 * math.sqrt(p))
    assert abs(est.value - ref) < 1e-9 * abs(ref)


def test_weyl_constant_self_consistency():
    # the reduction constant is validated against the closed gamma product
    for r in (1, 2, 3):
        for a in (r, r + 0.5, r + 2):
            est = integrate_invariant(NamedFamily("gamma_r", {"a": a}), r, nodes=48)
            ref = gamma_r_closed(r, a)
            assert abs(est.value - ref) < 1e-8 * abs(ref)


def test_weyl_constant_values():
    assert weyl_constant(1) == pytest.approx(1.0)
    assert weyl_constant(2) == pytest.approx(math.pi / 2.0)
    assert weyl_constant(3) == pytest.approx(math.pi**3 / 12.0)


def test_invariant_gamma2_example():
    est = integrate_invariant(NamedFamily("gamma_r", {"a": 3.0}), 2, nodes=48)
    assert abs(est.value - 2 * math.pi) < 1e-10


def test_invariant_beta2_example():
    est = integrate_invariant(NamedFamily("beta_r", {"a": 3.0, "b": 3.0}), 2, nodes=48)
    ref = gamma_r_closed(2, 3.0) ** 2 / gamma_r_closed(2, 6.0)
    assert abs(est.value - ref) < 1e-12 * abs(ref)


def test_invariant_rejects_matrix_argument():
    x = np.array([[0.5, 0.2], [0.2, 0.1]])
    fam = NamedFamily("gauss", {"a": 3.0, "b": 1.0, "c": 6.0}, X=x)
    with pytest.raises(NotInvariant):
        integrate_invariant(fam, 2)
    fam = NamedFamily("lauricella_fd", {"a": 3.0, "bs": (1.0, 0.5), "c": 6.0},
                      xs=(0.2 * np.eye(2), x))
    with pytest.raises(NotInvariant):
        integrate_invariant(fam, 2)


# each estimator of a named family at a 2 x 2 argument, at r = 1 or 3
_AT_WRONG_SIZE = {
    "adaptive-1d": lambda fam: integrate_r1(fam, ChainSpec("interval-0-1", 1)),
    "eigen-tensor": lambda fam: integrate_invariant(fam, 3),
    "haar-mc": lambda fam: integrate_haar_mc(fam, ChainSpec("interval-0-1", 3), 64,
                                             RandomStream(1)),
}


@pytest.mark.parametrize("method", list(_AT_WRONG_SIZE))
def test_family_argument_of_the_wrong_size_is_refused(method):
    # a 2 x 2 X used to die in det_batch with an IndexError at r = 1; at
    # r = 3 a scalar one was read as 0.3 I_3 and another failed in a matmul
    params = {"a": 4.6, "b": 1.2, "c": 9.3}
    families = [NamedFamily("gauss", params, X=0.3 * np.eye(2)),
                NamedFamily("gauss", params, X=np.diag([0.3, -0.4])),
                NamedFamily("lauricella_fd", {"a": 4.6, "c": 9.3, "bs": (0.7, 1.1)},
                            xs=(0.2 * np.eye(2), -0.5 * np.eye(2)))]
    for fam in families:
        with pytest.raises(ShapeMismatch, match=re.escape("arguments, got shape (2, 2)")):
            _AT_WRONG_SIZE[method](fam)


def _andreief_r2(moments):
    # the r = 2 eigenvalue integral is c_2 2! times the Hankel determinant
    # of the moments m_k of the per-eigenvalue weight
    m0, m1, m2 = moments
    return weyl_constant(2) * 2.0 * (m0 * m2 - m1 * m1)


# int u^(1.5 + k) exp(-u - 1/u) du = 2 K_(2.5 + k)(2)
_BESSEL_R2 = _andreief_r2([2.0 * sp.kv(2.5 + k, 2.0) for k in range(3)])
# int u^(0.6 + k) (1 - u)^0.7 (1 - 0.9 u)^-3.2 du
#   = B(1.6 + k, 1.7) 2F1(3.2, 1.6 + k; 3.3 + k; 0.9)
_GAUSS_R2 = _andreief_r2([sp.beta(1.6 + k, 1.7) * sp.hyp2f1(3.2, 1.6 + k, 3.3 + k, 0.9)
                          for k in range(3)])


def test_invariant_error_estimate_is_honest():
    bessel = NamedFamily("bessel", {"c": 3.5}, X=-np.eye(2))
    gauss = NamedFamily("gauss", {"a": 2.6, "b": 3.2, "c": 5.3}, X=0.9 * np.eye(2))
    cases = [(NamedFamily("gamma_r", {"a": 2.5}), 64, gamma_r_closed(2, 2.5)),
             # at 8 and 10 nodes these rules are off by 1e-2 or more
             (bessel, 8, _BESSEL_R2), (bessel, 10, _BESSEL_R2),
             (gauss, 8, _GAUSS_R2), (gauss, 10, _GAUSS_R2)]
    for fam, nodes, ref in cases:
        est = integrate_invariant(fam, 2, nodes=nodes)
        bound = max(est.abs_error_est * 10, 1e-10 * abs(ref))
        assert abs(est.value - ref) <= bound, (fam.tag, nodes)


def test_invariant_error_bar_bounds_the_error_of_beta():
    # |fine - coarse| alone claims less than the actual error in 60 of these
    # 90 draws: the rounding term r n eps c_r |sum of absolute terms| covers
    # it (the worst error is 0.64 of the bar), and the bar stays tight
    gen = np.random.default_rng(1)
    for r in (2, 3, 4):
        for _ in range(30):
            a, b = gen.uniform(r + 0.2, r + 3, size=2)
            est = integrate_invariant(NamedFamily("beta_r", {"a": a, "b": b}), r)
            ref = beta_r_closed(r, a, b)
            assert abs(est.value - ref) <= est.abs_error_est <= 1e-12 * abs(ref), (r, a, b)


def test_mc_gamma_identity_within_three_sigma():
    fam = NamedFamily("gamma_r", {"a": 3.0})
    est = integrate_haar_mc(fam, ChainSpec("half-line", 2), 100_000, RandomStream(5))
    ref = 2 * math.pi
    assert abs(est.value - ref) < 3 * est.abs_error_est


def test_mc_gauss_normalized_within_three_sigma():
    r, a, c = 2, 3.0, 6.0
    fam = NamedFamily("gauss", {"a": a, "b": 1.5, "c": c}, X=np.zeros((r, r)))
    est = integrate_haar_mc(fam, ChainSpec("interval-0-1", r), 100_000, RandomStream(7))
    ref = beta_r_closed(r, a, c - a)
    assert abs(est.value - ref) < 3 * est.abs_error_est


def test_mc_deterministic_bit_identical():
    fam = NamedFamily("gaussian_r", {})
    a = integrate_haar_mc(fam, ChainSpec("full-line", 2), 20_000, RandomStream(42))
    b = integrate_haar_mc(fam, ChainSpec("full-line", 2), 20_000, RandomStream(42))
    assert a.value == b.value and a.abs_error_est == b.abs_error_est
    c = integrate_haar_mc(fam, ChainSpec("full-line", 2), 20_000, RandomStream(43))
    assert c.value != a.value


def test_mc_threaded_matches_serial(monkeypatch):
    fam = NamedFamily("gaussian_r", {})
    serial = integrate_haar_mc(fam, ChainSpec("full-line", 2), 20_000, RandomStream(42))
    monkeypatch.setenv("RADON_HGF_THREADS", "4")
    threaded = integrate_haar_mc(fam, ChainSpec("full-line", 2), 20_000, RandomStream(42))
    assert serial.value == threaded.value


def test_mc_threads_malformed_names_variable(monkeypatch):
    # a count below 1 is refused like one that is not an integer
    fam = NamedFamily("gaussian_r", {})
    for raw in ("abc", "0", "-3"):
        monkeypatch.setenv("RADON_HGF_THREADS", raw)
        with pytest.raises(ValueError, match=f"RADON_HGF_THREADS must be a positive integer, got '{raw}'"):
            integrate_haar_mc(fam, ChainSpec("full-line", 2), 1000, RandomStream(42))


def test_mc_rejects_chain_outside_family():
    fam = NamedFamily("gaussian_r", {})
    with pytest.raises(IncompatibleChain):
        integrate_haar_mc(fam, ChainSpec("interval-0-1", 2), 1000, RandomStream(1))


def test_mc_hermite_weber_half_line_matches_r1():
    # the gamma density follows the kernel's power det(u)^(-c - r)
    fam = NamedFamily("hermite_weber", {"c": -0.5}, X=np.array([[0.3]]))
    chain = ChainSpec("half-line", 1)
    ref = integrate_r1(fam, chain, tol=1e-11).value
    est = integrate_haar_mc(fam, chain, 100_000, RandomStream(1))
    assert abs(est.value - ref) < 5 * est.abs_error_est


def test_mc_hermite_weber_half_line_divergent_raises():
    fam = NamedFamily("hermite_weber", {"c": 0.5}, X=np.array([[0.3]]))
    with pytest.raises(IncompatibleChain):
        integrate_haar_mc(fam, ChainSpec("half-line", 1), 1000, RandomStream(1))


def test_mc_bessel_half_line_matches_r1():
    # the gamma density decays at the kernel's rate -x = 0.05; at unit rate
    # it misses most of the mass (407.5 +- 50.4 against 7168)
    fam = NamedFamily("bessel", {"c": 2.8}, X=np.array([[-0.05]]))
    chain = ChainSpec("half-line", 1)
    ref = integrate_r1(fam, chain).value
    est = integrate_haar_mc(fam, chain, 100_000, RandomStream(1))
    assert abs(est.value - ref) < 5 * est.abs_error_est


def test_mc_bessel_growing_kernel_raises():
    fam = NamedFamily("bessel", {"c": 2.8}, X=np.array([[0.3]]))
    with pytest.raises(IncompatibleChain):
        integrate_haar_mc(fam, ChainSpec("half-line", 1), 1000, RandomStream(1))


def test_mc_value_pinned():
    # pins the draw order: any change to how the Gaussians are drawn or
    # orthogonalised changes this value
    fam = NamedFamily("gamma_r", {"a": 3.0})
    est = integrate_haar_mc(fam, ChainSpec("half-line", 2), 4096, RandomStream(7))
    ref = 6.063882907291953 - 4.061894594696384e-17j
    assert abs(est.value - ref) <= 1e-12 * abs(ref)
    assert abs(est.abs_error_est - 0.17138701220042246) <= 1e-12


def test_mc_matrix_argument_value_pinned():
    # pins the Haar path of a kernel that is not unitarily invariant: gauss
    # at a non-scalar Hermitian X
    X = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])
    fam = NamedFamily("gauss", {"a": 2.6, "b": 1.2, "c": 5.3}, X=X)
    est = integrate_haar_mc(fam, ChainSpec("interval-0-1", 2), 4096, RandomStream(7))
    ref = 0.016800765670707186 + 3.114207731421032e-20j
    assert abs(est.value - ref) <= 1e-12 * abs(ref)
    assert abs(est.abs_error_est - 0.00033176654058905995) <= 1e-12 * 0.00033176654058905995


# every family with a per-eigenvalue remainder, at scalar arguments
_INVARIANT_CASES = [
    ("beta_r", {"a": 3.5, "b": 4.0}, None, (), "interval-0-1"),
    ("gamma_r", {"a": 3.0}, None, (), "half-line"),
    ("gaussian_r", {}, None, (), "full-line"),
    ("gauss", {"a": 2.6, "b": 1.2, "c": 5.3}, 0.4, (), "interval-0-1"),
    ("kummer", {"a": 2.6, "c": 5.3}, -0.7, (), "interval-0-1"),
    ("bessel", {"c": 3.5}, -1.0, (), "half-line"),
    ("lauricella_fd", {"a": 2.6, "c": 5.3, "bs": (0.7, 1.1)}, None, (0.3, -0.5),
     "interval-0-1"),
    # complex exponents: the eigenvalue path multiplies in their phase
    ("beta_r", {"a": 2.3 + 0.4j, "b": 3.1 - 0.2j}, None, (), "interval-0-1"),
    ("gamma_r", {"a": 2.7 + 0.3j, "rate": 1.5 + 0.4j}, None, (), "half-line"),
    ("bessel", {"c": 3.5}, -1.0 + 0.2j, (), "half-line"),
]


def _invariant_family(tag, params, x, xs, r):
    return NamedFamily(tag, params, X=None if x is None else x * np.eye(r),
                       xs=tuple(v * np.eye(r) for v in xs))


@pytest.mark.parametrize("tag, params, x, xs, kind", _INVARIANT_CASES)
def test_mc_invariant_eigenvalues_match_haar_path(tag, params, x, xs, kind):
    # the kernel is the same at every V, so drawing the eigenvalues alone
    # gives the Haar path's value to rounding (one chunk per substream, so
    # both draw the same eigenvalues). The complex beta_r case runs at r = 3
    # as well: its draws crowd the singular end 0 (p = -0.7), where a weight
    # taken from det U rather than from lam loses digits
    complex_beta = tag == "beta_r" and isinstance(params["a"], complex)
    for r in (2, 3) if complex_beta else (2,):
        fam = _invariant_family(tag, params, x, xs, r)
        chain = ChainSpec(kind, r)
        fast = integrate_haar_mc(fam, chain, 4096, RandomStream(7))
        haar = integrate._monte_carlo(chain, FAMILIES[tag].exponents(fam.params, fam.X), 4096,
                                      RandomStream(7),
                                      over=lambda u: named_integrand_batch(fam, u, over=kind))
        assert abs(fast.value - haar.value) <= 1e-12 * abs(haar.value)
        assert abs(fast.abs_error_est - haar.abs_error_est) <= 1e-12 * haar.abs_error_est


def test_mc_invariant_path_draws_no_unitary(monkeypatch):
    def no_draw(z):
        raise AssertionError("Haar unitary drawn")

    monkeypatch.setattr(integrate, "haar_from_gaussian", no_draw)
    chain = ChainSpec("interval-0-1", 2)
    for tag, params, x, xs, kind in _INVARIANT_CASES:
        fam = _invariant_family(tag, params, x, xs, 2)
        integrate_haar_mc(fam, ChainSpec(kind, 2), 64, RandomStream(1))
    # a non-scalar X, and an integrand of U given to the Monte Carlo core,
    # keep the Haar draw
    fam = NamedFamily("gauss", {"a": 2.6, "b": 1.2, "c": 5.3}, X=np.diag([0.3, -0.4]))
    with pytest.raises(AssertionError, match="Haar unitary drawn"):
        integrate_haar_mc(fam, chain, 64, RandomStream(1))
    fam = NamedFamily("beta_r", {"a": 3.5, "b": 4.0})
    with pytest.raises(AssertionError, match="Haar unitary drawn"):
        integrate._monte_carlo(chain, (3.5, 4.0), 64, RandomStream(1),
                               over=lambda u: named_integrand_batch(fam, u, over=chain.kind))


def test_mc_invariant_path_calls_no_kernel_and_no_density(monkeypatch):
    # the eigenvalue path weighs each draw by the weight's mass and phi; the
    # matrix kernel serves the Haar path only, and no path has a density
    def no_kernel(fam, u, over=None):
        raise AssertionError("kernel called")

    monkeypatch.setattr(integrate, "named_integrand_batch", no_kernel)
    for tag, params, x, xs, kind in _INVARIANT_CASES:
        fam = _invariant_family(tag, params, x, xs, 2)
        integrate_haar_mc(fam, ChainSpec(kind, 2), 64, RandomStream(1))
    # a non-scalar X takes the kernel
    chain = ChainSpec("interval-0-1", 2)
    fam = NamedFamily("gauss", {"a": 2.6, "b": 1.2, "c": 5.3}, X=np.diag([0.3, -0.4]))
    with pytest.raises(AssertionError, match="kernel called"):
        integrate_haar_mc(fam, chain, 64, RandomStream(1))


def test_non_finite_estimates_raise():
    # exp(tr U X) overflows at X = 800 I; both estimators used to return
    # nan +- nan, and radon_hgf with them. They raise with no numpy warning
    # on the way, so that a warnings filter set to error cannot preempt it
    r, chain = 2, ChainSpec("interval-0-1", 2)
    fam = NamedFamily("kummer", {"a": 2.6, "c": 5.3}, X=800.0 * np.eye(r))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergent, match="eigen-tensor"):
            integrate_invariant(fam, r)
        with pytest.raises(NonConvergent, match="haar-mc"):
            integrate_haar_mc(fam, chain, 4096, RandomStream(1))
    lam = (2, 1, 1)
    cases = [
        # the table form of that kummer kernel, at a scalar and a matrix x
        ((-5.1, 800.0, 0.5, 0.6), np.eye(r), "auto", "eigen-tensor"),
        ((-5.1, 800.0, 0.5, 0.6), np.eye(r), "haar-mc", "haar-mc"),
        ((-5.1, 1.0, 0.5, 0.6), np.diag([800.0, 1.0]), "auto", "haar-mc"),
    ]
    for flat, x, method, path in cases:
        z = CoordMatrix(lam, r, pattern(lam, r, (x,)))
        pw = PartitionWeight.from_flat(lam, flat, 2 * r, r, strict=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergent, match=path):
                radon_hgf(z, pw, chain, Budget(samples=4096), method=method)


@pytest.mark.parametrize("s", [200, 300, 400, 600])
def test_estimates_past_the_float_range_raise(s):
    # kummer at X = s I, below the 800 I of the test above: the square of
    # the Monte Carlo mean passes the float range from s = 200, and the
    # eigen-tensor error bar from s = 400; both used to escape as a bare
    # OverflowError. An estimate that stays finite keeps a nonzero bar
    r, chain = 2, ChainSpec("interval-0-1", 2)
    fam = NamedFamily("kummer", {"a": 2.6, "c": 5.3}, X=s * np.eye(r))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergent, match="haar-mc"):
            integrate_haar_mc(fam, chain, 4096, RandomStream(1))
        if s < 400:
            est = integrate_invariant(fam, r)
            assert cmath.isfinite(est.value) and 0.0 < est.abs_error_est < math.inf
        else:
            with pytest.raises(NonConvergent, match="eigen-tensor"):
                integrate_invariant(fam, r)


def _chart_point_with_h(lam, xs, r):
    """A table form moved by a block-group element h with scalar constant
    terms and random higher terms, so that every block image is general."""
    gen = np.random.default_rng(0)
    h = GroupElement(tuple(
        TruncPoly.from_list([np.eye(r) * (1.0 + 0.1 * k)]
                            + [0.2 * gen.standard_normal((r, r)) for _ in range(nk - 1)])
        for k, nk in enumerate(lam)
    ))
    return apply_group(CoordMatrix(lam, r, pattern(lam, r, xs)), h=h)


@pytest.mark.parametrize("lam, xs, flat, value, error, kind", [
    # free weights: no eigenvalue reduction, so the chart Monte Carlo runs
    # at the table form nf, and maps back to z = nf h by chi(h)
    ((2, 2), (-np.eye(2),), (-5.2, 0.8, 1.2, -1.0),
     15.208675886377215 - 3.92178148431056e-17j, 1.473226592757882, "half-line"),
    ((3, 1), (0.5 * np.eye(2),), (-4.7, 0.0, 1.0, 0.7),
     6.97395510856427 + 1.8537706112042356e-18j, 0.12437843127201999, "half-line"),
    # the interval's Beta(2, 2) law and the full line's normal law
    ((1, 1, 1, 1), (0.3 * np.eye(2),), (-4.0, 0.5, 0.6, -1.1),
     0.027315019557654398 - 4.789874173504614e-20j, 0.0007576610950419293, "interval-0-1"),
    # this pin holds the chart Monte Carlo's draws, not the integral, whose
    # value 773.931... is test_reference_table.py::test_gaussian_form's xfail
    ((3,), (), (-4.0, 0.3, 0.2), 259.7323567643245 + 0j, 36.97388487896028, "full-line"),
])
def test_mc_chart_value_pinned(lam, xs, flat, value, error, kind):
    # pins the chart Monte Carlo as test_mc_value_pinned pins the named
    # path; recorded at z with LAPACK's QR and per-matrix products (the
    # half-line cases) or with the stack kernels, which the map from nf
    # matches to rounding
    z = _chart_point_with_h(lam, xs, 2)
    pw = PartitionWeight.from_flat(lam, flat, 4, 2, strict=False)
    est = radon_hgf(z, pw, ChainSpec(kind, 2),
                    Budget(samples=4096, stream=RandomStream(7)), method="haar-mc")
    assert est.method == "haar-mc"
    assert abs(est.value - value) <= 1e-12 * abs(value)
    assert abs(est.abs_error_est - error) <= 1e-12 * error


def test_mc_hermite_weber_full_line_divergent_raises():
    # |u|^(-c - r) is not integrable at 0 on the full line when c >= 1 - r
    fam = NamedFamily("hermite_weber", {"c": 0.3}, X=0.3 * np.eye(2))
    with pytest.raises(IncompatibleChain):
        integrate_haar_mc(fam, ChainSpec("full-line", 2), 1000, RandomStream(1))
    fam = NamedFamily("hermite_weber", {"c": -1.5}, X=0.3 * np.eye(2))
    with pytest.warns(BranchCutWarning):
        est = integrate_haar_mc(fam, ChainSpec("full-line", 2), 1000, RandomStream(1))
    assert np.isfinite(est.value) and est.abs_error_est > 0


@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("tag, params, x, kind", [
    ("beta_r", {"a": 5.5, "b": 6.0}, None, "interval-0-1"),
    ("gamma_r", {"a": 5.5}, None, "half-line"),
    ("gaussian_r", {}, None, "full-line"),
    ("kummer", {"a": 5.5, "c": 11.0}, 0.7, "interval-0-1"),
])
def test_mc_matches_eigen_tensor_above_r2(tag, params, x, kind, r):
    fam = NamedFamily(tag, params, X=None if x is None else x * np.eye(r))
    ref = integrate_invariant(fam, r).value
    est = integrate_haar_mc(fam, ChainSpec(kind, r), 20_000, RandomStream(r))
    assert abs(est.value - ref) < 5 * est.abs_error_est


def test_radon_mc_fallback_matches_closed_form_r3():
    r, a2, a3 = 3, 1.0, 2.0
    pw = PartitionWeight((1, 1, 1), ((-2 * r - a2 - a3,), (a2,), (a3,)), 2 * r, r,
                         strict=False)
    z = CoordMatrix((1, 1, 1), r, pattern((1, 1, 1), r))
    est = radon_hgf(z, pw, ChainSpec("interval-0-1", r),
                    Budget(samples=20_000, stream=RandomStream(3)), method="haar-mc")
    ref = beta_r_closed(r, a2 + r, a3 + r)
    assert est.method == "haar-mc"
    assert abs(est.value - ref) < 5 * est.abs_error_est


def test_radon_gamma_reduction():
    a = 2.5
    pw = PartitionWeight((2, 1), ((-2 - (a - 1), -1.0), (a - 1,)), 2, 1, strict=False)
    z = CoordMatrix((2, 1), 1, pattern((2, 1), 1))
    est = radon_hgf(z, pw, ChainSpec("half-line", 1), Budget(tol=1e-12))
    assert abs(est.value - gamma(a)) < 1e-8 * abs(gamma(a))


def test_radon_beta2_eigen_tensor():
    a2, a3, r = 1.0, 2.0, 2
    pw = PartitionWeight((1, 1, 1), ((-4 - a2 - a3,), (a2,), (a3,)), 4, r, strict=False)
    z = CoordMatrix((1, 1, 1), r, pattern((1, 1, 1), r))
    est = radon_hgf(z, pw, ChainSpec("interval-0-1", r))
    ref = beta_r_closed(r, a2 + r, a3 + r)
    assert est.method == "eigen-tensor"
    assert abs(est.value - ref) < 1e-6 * abs(ref)


def test_radon_gauss_series_reduction():
    a, b, c, x = 0.7, 1.3, 2.1, 0.4
    alpha = (b - c, a - 1, c - a - 1, -b)
    pw = PartitionWeight((1, 1, 1, 1), tuple((v,) for v in alpha), 2, 1, strict=False)
    z = CoordMatrix((1, 1, 1, 1), 1, pattern((1, 1, 1, 1), 1, (np.array([[x]]),)))
    est = radon_hgf(z, pw, ChainSpec("interval-0-1", 1), Budget(tol=1e-12))
    pref = gamma(c) / (gamma(a) * gamma(c - a))
    ref = gauss_2f1(a, b, c, x)
    assert abs(pref * est.value - ref) < 1e-7 * abs(ref)


def test_radon_scaled_gamma_eigen_r2():
    # half-line block weight with a free exponential coefficient rescales
    # onto the matrix gamma integral
    a3, rate, r = 0.5, 1.7, 2
    pw = PartitionWeight((2, 1), ((-2 * r - a3, -rate), (a3,)), 2 * r, r, strict=False)
    z = CoordMatrix((2, 1), r, pattern((2, 1), r))
    est = radon_hgf(z, pw, ChainSpec("half-line", r))
    a = a3 + r
    ref = gamma_r_closed(r, a) * rate ** (-(a - r) * r - r * r)
    assert est.method == "eigen-tensor"
    assert abs(est.value - ref) < 1e-8 * abs(ref)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("a2", [-1.2 + 0.4j, -0.8 - 0.9j])
def test_radon_complex_decay_eigen(r, a2):
    # the (2,1) form is the matrix gamma integral at the decay rate -alpha_2,
    # which the scaled Laguerre rule takes complex: Gamma_r(a) (-alpha_2)^(-a r)
    a3 = 0.6
    pw = PartitionWeight((2, 1), ((-2 * r - a3, a2), (a3,)), 2 * r, r, strict=False)
    z = CoordMatrix((2, 1), r, pattern((2, 1), r))
    est = radon_hgf(z, pw, ChainSpec("half-line", r))
    a = a3 + r
    ref = gamma_r_closed(r, a) * cmath.exp(-a * r * cmath.log(-a2))
    assert est.method == "eigen-tensor"
    assert abs(est.value - ref) < 1e-12 * abs(ref)


@pytest.mark.parametrize("lam, x, flat", [
    ((1, 1, 1), None, (-7.0, 1.0, 2.0)),
    ((2, 1), None, (-4.5, -1.7, 0.5)),
    ((1, 1, 1, 1), 0.3, (-4.0, 0.5, 0.6, -1.1)),
    ((2, 1, 1), -0.7, (-5.1, 1.0, 0.5, 0.6)),
    ((2, 2), -1.0, (-5.2, 1.0, 1.2, -1.0)),
    # every all-ones form of five or more blocks is the matrix Lauricella F_D
    ((1,) * 5, (0.3, -0.4), (-3.0, 0.5, 0.6, -1.1, -1.0)),
])
def test_radon_eigen_tensor_is_the_family_integral(lam, x, flat):
    # at a table form with scalar residuals, radon_hgf's eigen-tensor value
    # is the eigen-tensor integral of its named family as it is
    r = 2
    xs = () if x is None else tuple(v * np.eye(r) for v in np.atleast_1d(x))
    z = CoordMatrix(lam, r, pattern(lam, r, xs))
    pw = PartitionWeight.from_flat(lam, flat, 2 * r, r, strict=False)
    fam = family_of_normal_form(lam, xs, flat, r)
    chain = ChainSpec(FAMILIES[fam.tag].chains[0], r)
    assert radon_hgf(z, pw, chain, method="eigen-tensor") == integrate_invariant(fam, r)


@pytest.mark.parametrize("lam, xs, flat, kind, message", [
    # with Re alpha_2 >= 0 the (2,1) form's gamma weight does not decay
    ((2, 1), (), (-4.6, 0.0, 0.6), "half-line", "needs a positive decay rate"),
    ((2, 1), (), (-4.6, 0.4 - 0.3j, 0.6), "half-line", "needs a positive decay rate"),
    ((3,), (), (-4.0, 0.3, 0.2), "full-line", "no named family for partition (3,)"),
    ((1,) * 5, (np.diag([0.3, 0.5]), -0.4 * np.eye(2)), (-3.0, 0.5, 0.6, -1.1, -1.0),
     "interval-0-1", "matrix argument breaks unitary invariance"),
    ((2, 2), (np.diag([-1.0, -0.5]),), (-5.2, 1.0, 1.2, -1.0), "half-line",
     "matrix argument breaks unitary invariance"),
    ((2, 2), (-np.eye(2),), (-5.2, 0.8, 1.2, -1.0), "half-line",
     "partition (2, 2) requires alpha_2 = 1.0"),
    # the entries of a table form moved off it by g = diag(2, 2, 1, 1),
    # which has a family at its table form (no message)
    ((2, 1, 1), np.diag([2.0, 2.0, 1.0, 1.0]) @ pattern((2, 1, 1), 2, (0.3 * np.eye(2),)),
     (-5.1, 1.0, 0.5, 0.6), "interval-0-1", None),
])
def test_radon_eigen_tensor_refuses_forms_without_a_family(lam, xs, flat, kind, message):
    # a form with no family, or whose family has no eigen rule, is refused
    # under eigen-tensor and falls back to Monte Carlo under auto; xs holds a
    # table form's residual parameters, or the entries of a point
    r = 2
    z = CoordMatrix(lam, r, xs if isinstance(xs, np.ndarray) else pattern(lam, r, xs))
    pw = PartitionWeight.from_flat(lam, flat, 2 * r, r, strict=False)
    chain = ChainSpec(kind, r)
    if message is None:
        # F(g nf) = det(g)^-r F(nf), det(g)^r = 16
        nf = CoordMatrix(lam, r, pattern(lam, r, (0.3 * np.eye(2),)))
        ref = radon_hgf(nf, pw, chain, method="eigen-tensor").value / 16.0
        for method in ("eigen-tensor", "auto"):
            est = radon_hgf(z, pw, chain, method=method)
            assert est.method == "eigen-tensor"
            assert abs(est.value - ref) <= 1e-14 * abs(ref)
        return
    with pytest.raises(IncompatibleChain, match=re.escape(message)):
        radon_hgf(z, pw, chain, method="eigen-tensor")
    assert radon_hgf(z, pw, chain, Budget(samples=4096)).method == "haar-mc"


def _flat_at(flat, r):
    """The r = 2 flat weight ``flat`` at rank r: its first entry moved so
    that the leading weights sum to -2r."""
    return (flat[0] - 2 * (r - 2),) + tuple(flat[1:])


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("lam, x, flat, kind", [
    ((1, 1, 1), None, (-7.0, 1.0, 2.0), "interval-0-1"),
    ((2, 1), None, (-4.5, -1.7, 0.5), "half-line"),
    ((1, 1, 1, 1), 0.3, (-4.0, 0.5, 0.6, -1.1), "interval-0-1"),
    ((2, 1, 1), -0.7, (-5.1, 1.0, 0.5, 0.6), "interval-0-1"),
    # alpha_2 = 1 pins the (2,2) form to the bessel kernel
    ((2, 2), -1.0, (-5.2, 1.0, 1.2, -1.0), "half-line"),
])
def test_radon_is_covariant_off_the_table_form(lam, x, flat, kind, r):
    # F(g nf h) = det(g)^-r chi(h) F(nf): radon_hgf reduces g nf h back to
    # nf and maps the eigen-tensor value there
    gen = np.random.default_rng(3)
    nf = CoordMatrix(lam, r, pattern(lam, r, () if x is None else (x * np.eye(r),)))
    pw = PartitionWeight.from_flat(lam, _flat_at(flat, r), 2 * r, r, strict=False)
    chain = ChainSpec(kind, r)
    f_nf = radon_hgf(nf, pw, chain).value
    for _ in range(3):
        g = gen.standard_normal((2 * r, 2 * r))
        while np.linalg.cond(g) >= 60:
            g = gen.standard_normal((2 * r, 2 * r))
        h = GroupElement(tuple(
            TruncPoly.from_list([np.eye(r) * gen.uniform(0.5, 2.0)]
                                + [0.5 * gen.standard_normal((r, r)) for _ in range(nk - 1)])
            for nk in lam))
        est = radon_hgf(apply_group(nf, g=g, h=h), pw, chain)
        ref = np.linalg.det(g) ** -r * chi_lambda(h, pw) * f_nf
        assert est.method == "eigen-tensor"
        assert abs(est.value - ref) <= 1e-12 * abs(ref)
        assert isinstance(est.abs_error_est, float)


def test_radon_frame_point_is_mapped_to_its_table_form():
    lam, r = (1, 1, 1, 1), 2
    nf = CoordMatrix(lam, r, pattern(lam, r, (0.4 * np.eye(r),)))
    pw = PartitionWeight.from_flat(lam, (-4.0, 0.6, 0.7, -1.3), 2 * r, r, strict=False)
    z = apply_group(nf, g=np.diag([1.1, 1.1, 0.9, 0.9]))
    est = radon_hgf(z, pw, ChainSpec("interval-0-1", r))
    assert est.method == "eigen-tensor"
    assert abs(est.value - 0.0320158594320053) <= 1e-12 * 0.0320158594320053


def test_radon_refuses_a_partition_with_no_reducer():
    # (2,1,1,1) has no table form to map to
    lam, r = (2, 1, 1, 1), 2
    z = CoordMatrix(lam, r, np.random.default_rng(0).standard_normal((2 * r, 5 * r)))
    pw = PartitionWeight.from_flat(lam, (-5.5, 0.3, 0.5, 0.5, 0.5), 2 * r, r, strict=False)
    for method in ("auto", "eigen-tensor", "haar-mc"):
        with pytest.raises(UnsupportedPartition, match=re.escape("(2, 1, 1, 1)")):
            radon_hgf(z, pw, ChainSpec("interval-0-1", r), Budget(samples=4096), method)


def test_off_table_r2_call_makes_one_pass(monkeypatch):
    # one radon_hgf entry and one reduction; membership is tested for z and
    # for its table form inside reduce_orbit, and the rebuilt form is not
    # tested again
    calls = {"radon_hgf": 0, "reduce_orbit": 0, "member": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(integrate, "radon_hgf", counting("radon_hgf", integrate.radon_hgf))
    monkeypatch.setattr(integrate, "reduce_orbit", counting("reduce_orbit", reduce_orbit))
    member = counting("member", grassmann.z_lambda_member)
    monkeypatch.setattr(grassmann, "z_lambda_member", member)
    monkeypatch.setattr(normal_form, "z_lambda_member", member)
    lam, r = (1, 1, 1, 1), 2
    nf = CoordMatrix(lam, r, pattern(lam, r, (0.4 * np.eye(r),)))
    pw = PartitionWeight.from_flat(lam, (-4.0, 0.6, 0.7, -1.3), 2 * r, r, strict=False)
    z = apply_group(nf, g=np.diag([1.1, 1.1, 0.9, 0.9]))
    est = integrate.radon_hgf(z, pw, ChainSpec("interval-0-1", r))
    assert abs(est.value - 0.0320158594320053) <= 1e-12 * 0.0320158594320053
    assert calls["radon_hgf"] == 1 and calls["reduce_orbit"] == 1
    assert calls["member"] <= 2


def test_point_outside_z_lambda_with_no_reducer_raises_unsupported_partition():
    # two faults: (2,1,1,1) has no reducer, and the equal leading columns of
    # blocks 2 and 3 put z outside Z_lambda. The partition is refused
    # before any membership test, as reduce_orbit refuses it
    lam, r = (2, 1, 1, 1), 2
    e = np.random.default_rng(0).standard_normal((2 * r, 5 * r))
    e[:, 3 * r : 4 * r] = e[:, 2 * r : 3 * r]
    z = CoordMatrix(lam, r, e)
    with pytest.raises(NotInZLambda):
        grassmann.require_member(z)
    pw = PartitionWeight.from_flat(lam, (-5.5, 0.3, 0.5, 0.5, 0.5), 2 * r, r, strict=False)
    with pytest.raises(UnsupportedPartition, match=re.escape("(2, 1, 1, 1)")):
        radon_hgf(z, pw, ChainSpec("interval-0-1", r))


def test_radon_bessel_eigen_r2():
    # the (2,2) form with pinned weights is the bessel kernel at X = x; with
    # free weights it falls back to Monte Carlo
    r, a3, x = 2, 1.2, -1.0
    z = CoordMatrix((2, 2), r, pattern((2, 2), r, (x * np.eye(r),)))
    chain = ChainSpec("half-line", r)
    pw = PartitionWeight.from_flat((2, 2), (-2 * r - a3, 1.0, a3, -1.0), 2 * r, r,
                                   strict=False)
    est = radon_hgf(z, pw, chain)
    mc = radon_hgf(z, pw, chain, Budget(samples=100_000, stream=RandomStream(3)),
                   method="haar-mc")
    assert est.method == "eigen-tensor"
    assert abs(est.value - mc.value) < 5 * mc.abs_error_est
    pw = PartitionWeight.from_flat((2, 2), (-2 * r - a3, 0.8, a3, -1.0), 2 * r, r,
                                   strict=False)
    assert radon_hgf(z, pw, chain, Budget(samples=4096)).method == "haar-mc"


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("lam, xs, flat, kind", [
    ((2, 2), (-np.eye(2),), (-5.2, 1.0, 1.2, -1.0), "full-line"),
    ((2, 2), (-np.eye(2),), (-5.2, 1.0, 1.2, -1.0), "interval-0-1"),
    ((1, 1, 1), (), (-7.0, 1.0, 2.0), "half-line"),
])
def test_radon_eigen_tensor_keeps_the_chain(lam, xs, flat, kind):
    # the eigen-tensor integral runs over the family's default chain only; on
    # another chain radon_hgf falls back to Monte Carlo over that chain
    z = CoordMatrix(lam, 2, pattern(lam, 2, xs))
    pw = PartitionWeight.from_flat(lam, flat, 4, 2, strict=False)
    chain = ChainSpec(kind, 2)
    if kind == "full-line":
        # exp(-tr U^-1) grows without bound as an eigenvalue nears 0 from
        # below, so the fallback finds no finite value and says so
        with pytest.raises(NonConvergent, match="haar-mc"):
            radon_hgf(z, pw, chain, Budget(samples=4096))
    else:
        assert radon_hgf(z, pw, chain, Budget(samples=4096)).method == "haar-mc"
    with pytest.raises(IncompatibleChain):
        radon_hgf(z, pw, chain, method="eigen-tensor")


def test_radon_mc_fallback_matches_closed_form():
    r = 2
    a2, a3 = 1.0, 2.0
    pw = PartitionWeight((1, 1, 1), ((-4 - a2 - a3,), (a2,), (a3,)), 4, r,
                         strict=False)
    z = CoordMatrix((1, 1, 1), r, pattern((1, 1, 1), r))
    est = radon_hgf(z, pw, ChainSpec("interval-0-1", r),
                    Budget(samples=200_000, stream=RandomStream(3)),
                    method="haar-mc")
    ref = beta_r_closed(r, a2 + r, a3 + r)
    assert est.method == "haar-mc"
    assert abs(est.value - ref) < 3 * est.abs_error_est


@pytest.mark.parametrize("method", ["bogus", "adaptive-1d"])
def test_unknown_method_is_refused_at_every_r(monkeypatch, method):
    # an unknown name used to be ignored at r = 1 and to run Monte Carlo on
    # the r = 2 (1,1,1) table form; now it is refused before any work
    message = f"method must be auto, eigen-tensor or haar-mc, got {method!r}"
    z1, pw1, chain1 = _pde_base((1, 1, 1, 1))
    r = 2
    pw2 = PartitionWeight((1, 1, 1), ((-7.0,), (1.0,), (2.0,)), 4, r, strict=False)
    z2 = CoordMatrix((1, 1, 1), r, pattern((1, 1, 1), r))
    chain2 = ChainSpec("interval-0-1", r)
    with monkeypatch.context() as m:
        for name in ("_stacked", "require_member", "integrate_invariant", "integrate_haar_mc",
                     "_monte_carlo"):
            m.setattr(integrate, name, None)
        for z, pw, chain in ((z1, pw1, chain1), (z2, pw2, chain2)):
            with pytest.raises(ValueError, match=re.escape(message)):
                radon_hgf(z, pw, chain, method=method)
    # r = 1 integrates adaptively whatever the known method
    est = radon_hgf(z1, pw1, chain1)
    assert est.method == "adaptive-1d"
    assert all(radon_hgf(z1, pw1, chain1, method=name) == est
               for name in ("eigen-tensor", "haar-mc"))


def test_radon_membership_checked():
    e = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    z = CoordMatrix((1, 1, 1), 1, e)
    pw = PartitionWeight((1, 1, 1), ((-0.9,), (-0.6,), (-0.5,)), 2, 1, strict=False)
    with pytest.raises(NotInZLambda):
        radon_hgf(z, pw, ChainSpec("interval-0-1", 1))


def test_chain_needing_more_blocks_is_refused_after_membership():
    # (2,1) has two blocks and the interval needs three: a point outside
    # Z_lambda says so first, alone and in a scope that registered both
    pw = PartitionWeight((2, 1), ((-2.6, -1.0), (0.6,)), 2, 1, strict=False)
    chain = ChainSpec("interval-0-1", 1)
    inside = CoordMatrix((2, 1), 1, pattern((2, 1), 1))
    outside = CoordMatrix((2, 1), 1, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    for points in ([], [inside, outside], [outside, inside]):
        with integrate._mesh_scope(points):
            with pytest.raises(NotInZLambda):
                radon_hgf(outside, pw, chain)
            with pytest.raises(IncompatibleChain, match="interval-0-1 chains need at least 3"):
                radon_hgf(inside, pw, chain)


def test_covariance_h_side():
    from radon_hgf.characters import GroupElement, chi_lambda
    from radon_hgf.grassmann import apply_group
    from radon_hgf.jordan import TruncPoly

    a = 2.5
    pw = PartitionWeight((2, 1), ((-2 - (a - 1), -1.0), (a - 1,)), 2, 1, strict=False)
    z = CoordMatrix((2, 1), 1, pattern((2, 1), 1))
    chain = ChainSpec("half-line", 1)
    f0 = radon_hgf(z, pw, chain, Budget(tol=1e-12)).value
    h = GroupElement((
        TruncPoly.from_list([[[1.7]], [[0.4]]]),
        TruncPoly.from_list([[[2.3]]]),
    ))
    f1 = radon_hgf(apply_group(z, h=h), pw, chain, Budget(tol=1e-12)).value
    chi = chi_lambda(h, pw)
    assert abs(f1 / f0 - chi) < 1e-6 * abs(chi)


def test_covariance_g_side():
    from radon_hgf.grassmann import apply_group

    a, b, c = 0.8, 1.1, 2.2
    alpha = (b - c, a - 1, c - a - 1, -b)
    pw = PartitionWeight((1, 1, 1, 1), tuple((v,) for v in alpha), 2, 1, strict=False)
    z = CoordMatrix((1, 1, 1, 1), 1, pattern((1, 1, 1, 1), 1, (np.array([[-0.4]]),)))
    chain = ChainSpec("interval-0-1", 1)
    f0 = radon_hgf(z, pw, chain, Budget(tol=1e-12)).value
    g = np.array([[1.05, 0.1], [0.0, 0.95]])
    f1 = radon_hgf(apply_group(z, g=g), pw, chain, Budget(tol=1e-12)).value
    target = 1.0 / np.linalg.det(g)
    assert abs(f1 / f0 - target) < 1e-5 * abs(target)


def test_hermite_weber_eigen_unsupported():
    fam = NamedFamily("hermite_weber", {"c": -1.3}, X=0.2 * np.eye(2))
    with pytest.raises(IncompatibleChain):
        integrate_invariant(fam, 2)


def test_divergent_endpoint_raises():
    from radon_hgf.errors import DivergentEndpoint

    fam = NamedFamily("beta_r", {"a": -0.2, "b": 2.0})
    with pytest.raises(DivergentEndpoint):
        integrate_r1(fam, ChainSpec("interval-0-1", 1), tol=1e-10)


def test_divergent_full_line_raises_typed_error():
    # the integrand grows without bound along the real line; the panel
    # error estimate used to overflow into a bare OverflowError
    z = CoordMatrix((3, 1), 1, pattern((3, 1), 1, (np.eye(1) * 0.3,)))
    pw = PartitionWeight.from_flat((3, 1), (-4, 0, -1, 2), 2, 1, strict=False)
    with pytest.raises(RadonHGFError):
        radon_hgf(z, pw, ChainSpec("full-line", 1))


def test_mc_lauricella_vs_series():
    from radon_hgf.oracles import lauricella_fd

    a, bs, c = 0.8, (0.7, 1.1), 2.3
    xs = (0.2, 0.1)
    fam = NamedFamily(
        "lauricella_fd", {"a": a, "bs": bs, "c": c},
        xs=tuple(np.array([[x]]) for x in xs),
    )
    est = integrate_haar_mc(fam, ChainSpec("interval-0-1", 1), 200_000, RandomStream(9))
    pref = gamma(c) / (gamma(a) * gamma(c - a))
    ref = lauricella_fd(a, bs, c, xs)
    assert abs(pref * est.value - ref) / abs(ref) < 1e-2


def test_kummer_scalar_argument_eigen():
    # kummer with scalar argument stays in the deterministic path
    fam = NamedFamily("kummer", {"a": 2.0, "c": 5.0}, X=-0.4 * np.eye(2))
    est = integrate_invariant(fam, 2, nodes=64)
    mc = integrate_haar_mc(fam, ChainSpec("interval-0-1", 2), 200_000, RandomStream(3))
    assert abs(est.value - mc.value) < 4 * mc.abs_error_est


_FULL = [RayPair(math.pi, 0.0)]
_ROTATED = [RayPair(-2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0)]


@pytest.mark.parametrize("fam, kind, pieces", [
    (NamedFamily("beta_r", {"a": 2.5, "b": 1.5}), "interval-0-1", [Segment(0.0, 1.0, 1.5, 0.5)]),
    (NamedFamily("gamma_r", {"a": 2.5}), "half-line", [Ray(0.0, 0.0, 1.5)]),
    (NamedFamily("gaussian_r", {}), "full-line", _FULL),
    (NamedFamily("airy", {}), "rotated-ray", _ROTATED),
])
def test_integrate_r1_chain_pieces(monkeypatch, fam, kind, pieces):
    seen = []
    monkeypatch.setattr(integrate, "integrate_pieces", lambda f, p, tol: seen.append(p))
    integrate_r1(fam, ChainSpec(kind, 1))
    assert seen == [pieces]


def _chart_pieces(z, pw, chain):
    """The chain pieces of z as its stack of one places them, each number
    a (1,) array."""
    return integrate._roots_pieces(*integrate._block_roots(z.lam, z.entries[None]), pw, chain)


@pytest.mark.parametrize("kind, pieces", [
    ("interval-0-1", [Segment(-0.5, 0.5, -0.3, 0.4)]),
    ("half-line", [Ray(-0.5, 0.0, -0.3, exp_far=-0.8)]),
    ("full-line", [RayPair(math.pi, 0.0, exp_far=-0.8)]),
    ("rotated-ray", [RayPair(-2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0, exp_far=-0.8)]),
])
def test_chart_chain_pieces(kind, pieces):
    # block roots -a0/b0: none, -0.5, 0.5, -2; the ends are those of blocks 2
    # and 3, with their leading weights as the end exponents; rays run to
    # the root of block 1 (here inf), a pure power of weight -0.8, which is
    # the exponent there
    z = CoordMatrix((1, 1, 1, 1), 1, np.array([[1.0, 0.5, -1.0, 2.0], [0.0, 1.0, 2.0, 1.0]]))
    pw = PartitionWeight.from_flat((1, 1, 1, 1), (-0.8, -0.3, 0.4, -1.3), 2, 1, strict=False)
    assert _chart_pieces(z, pw, ChainSpec(kind, 1)) == pieces


def test_chart_chain_pieces_need_enough_blocks():
    z = CoordMatrix((3, 1), 1, np.array([[1.0, 0.2, 0.1, 0.5], [0.3, 1.0, 0.0, 1.0]]))
    pw = PartitionWeight.from_flat((3, 1), (-1.4, 0.3, 0.2, -0.6), 2, 1, strict=False)
    # the ray ends at the root -1/0.3 of block 1
    assert _chart_pieces(z, pw, ChainSpec("half-line", 1)) == [
        Ray(-0.5, 0.0, -0.6, far=-10 / 3)
    ]
    with pytest.raises(IncompatibleChain):
        _chart_pieces(z, pw, ChainSpec("interval-0-1", 1))


@pytest.mark.parametrize("c", [1e-3, 1e-15, 1e-30])
def test_block_root_at_infinity_is_scale_free(c):
    # scaling block 2's column by c keeps its root and multiplies F by
    # c^alpha_2: a root is at infinity only against the column's own norm,
    # so the interval keeps its end however small c is (a bound of
    # 1e-13 max(1, |a0|) sent it to infinity below c = 1e-13)
    lam = (1, 1, 1)
    z = CoordMatrix(lam, 1, pattern(lam, 1))
    pw = PartitionWeight.from_flat(lam, (-2.7, 0.3, 0.4), 2, 1, strict=False)
    chain = ChainSpec("interval-0-1", 1)
    e = z.entries.copy()
    e[:, 1] *= c
    moved = z.with_entries(e)
    assert _chart_pieces(moved, pw, chain) == _chart_pieces(z, pw, chain)
    base = radon_hgf(z, pw, chain)
    scaled = radon_hgf(moved, pw, chain)
    factor = c ** 0.3
    assert abs(scaled.value - factor * base.value) <= (
        scaled.abs_error_est + factor * base.abs_error_est)


def test_block_roots_are_the_bits_of_python_division():
    # stacked or alone, a root is -a0 / b0 on Python complex numbers bit
    # for bit, signed zeros included; numpy's own complex division differs
    # from it in the last bit on about 40% of inputs
    gen = np.random.default_rng(5)
    e = gen.standard_normal((400, 2, 4)) + 1j * gen.standard_normal((400, 2, 4))
    e.real *= 10.0 ** gen.integers(-8, 9, e.shape)
    e.imag *= 10.0 ** gen.integers(-8, 9, e.shape)
    e.real[gen.random(e.shape) < 0.1] = 0.0
    e.imag[gen.random(e.shape) < 0.1] = -0.0
    e.imag[gen.random(e.shape) < 0.05] = 0.0
    # roots at infinity whose b0 is 0 or -1, and one on the threshold
    e[:3, 1, 0] = 0.0, -1.0, 1.0
    e[:3, 0, 0] = 0.0, 1e14, 1e13

    def finite_roots(roots, infinite):
        return [None if inf else root for root, inf in zip(roots, infinite)]

    stacked = integrate._block_roots((1, 1, 1, 1), e)
    count = 0
    for k, (top, bottom) in enumerate(e.tolist()):
        expected = [
            None if abs(b0) <= 1e-13 * np.hypot(abs(a0), abs(b0)) else -a0 / b0
            for a0, b0 in zip(top, bottom)
        ]
        count += expected.count(None)
        assert repr(finite_roots(stacked[0][k], stacked[1][k])) == repr(expected)
        (alone,), (infinite,) = integrate._block_roots((1, 1, 1, 1), e[k : k + 1])
        assert repr(finite_roots(alone, infinite)) == repr(expected)
    assert count > 0


# a perturbed (2,2) half-line point: the root of block 1 is finite and lies
# behind the ray's origin, so the chain runs out to inf and back in to it
_FAR_Z = CoordMatrix((2, 2), 1, np.array([
    [1.04492475, 0.09808698, 0.01636613, 0.92600028],
    [0.07749591, -0.60399885, 1.01217295, -0.10392809],
]))
_FAR_PW = PartitionWeight.from_flat((2, 2), (-2.35, 1.0, 0.35, -1.0), 2, 1, strict=False)


def test_half_line_covariance_with_finite_block_root():
    chain, budget = ChainSpec("half-line", 1), Budget(tol=5e-13)
    f0 = radon_hgf(_FAR_Z, _FAR_PW, chain, budget).value
    gen = np.random.default_rng(0)
    for _ in range(12):
        g = np.eye(2) + 0.15 * gen.standard_normal((2, 2))
        fg = radon_hgf(apply_group(_FAR_Z, g=g), _FAR_PW, chain, budget).value
        assert abs(fg * np.linalg.det(g) - f0) <= 1e-12 * abs(f0)


def test_half_line_through_infinity_matches_quadpack():
    # the arc passes through inf between two nodes, never at one
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = radon_hgf(_FAR_Z, _FAR_PW, ChainSpec("half-line", 1), Budget(tol=5e-13))
    f = scalar_chart_function(_FAR_Z.entries[None], _FAR_PW)
    root = (-_FAR_Z.entries[0, 0] / _FAR_Z.entries[1, 0]).real
    origin = (-_FAR_Z.entries[0, 2] / _FAR_Z.entries[1, 2]).real
    one = np.zeros(1, dtype=int)

    def quad(a, b):
        return scipy.integrate.quad(lambda u: f(np.full((1, 1), u), one)[0, 0].real, a, b,
                                    epsabs=0.0, epsrel=1e-13, limit=200)[0]

    # the ray to inf alone gives 1.16203; the chain goes on from -inf to the root
    ref = quad(origin, np.inf) + quad(-np.inf, root)
    assert abs(est.value - ref) <= 1e-12 * abs(ref)
    assert est.nodes_or_samples <= 16


def test_half_line_root_on_the_ray():
    # a frame of the (2,1) covariance check puts the root of block 1 on the
    # ray at u = 1127; the chain ends there instead of crossing it
    e = np.array([[0.16566753663396516, 0.32131842480987755],
                  [-0.8876118797381407, -0.4567157161627934]])
    z = apply_group(CoordMatrix((2, 1), 1, pattern((2, 1), 1)), g=scipy.linalg.expm(1e-3 * e))
    pw = PartitionWeight((2, 1), ((-2.6, -1.0), (0.6,)), 2, 1, strict=False)
    est = radon_hgf(z, pw, ChainSpec("half-line", 1), Budget(tol=5e-13))
    assert abs(est.value - 0.8937754431515657) <= 1e-12


@pytest.mark.parametrize("b0", [1 / 9000, -1 / 9000])
def test_full_line_far_root_keeps_the_bump(b0):
    # g = [[1, 0], [b0, 1]] moves the root of the (3,) block from inf to
    # -1/b0; det g = 1, so the value is the table form's
    # sqrt(2 pi) exp(0.3^2 / 2)
    z = CoordMatrix((3,), 1, np.array([[1.0, 0.0, 0.0], [b0, 1.0, 0.0]]))
    pw = PartitionWeight((3,), ((-2.0, 0.3, 1.0),), 2, 1, strict=False)
    est = radon_hgf(z, pw, ChainSpec("full-line", 1), Budget(tol=5e-13))
    ref = math.sqrt(2.0 * math.pi) * math.exp(0.3**2 / 2.0)
    assert abs(est.value - ref) <= 1e-12 * ref


@pytest.mark.parametrize("g", [np.eye(2), np.array([[1.0, 0.0], [-0.02, 1.0]]),
                               np.array([[1.0, 0.0], [0.02, 1.1]])])
def test_half_line_algebraic_far_end(g):
    # u^-0.5 (1 + u)^-1.2 over the half line is B(0.5, 0.7); the root of
    # block 1 carries the pure power -0.3 (at inf, on the ray at u = 50, or
    # behind the origin)
    z = CoordMatrix((1, 1, 1), 1, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    pw = PartitionWeight((1, 1, 1), ((-0.3,), (-0.5,), (-1.2,)), 2, 1, strict=False)
    # nodes whose s rounds to 1, where D vanishes, are dropped before the
    # arc maps them
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = radon_hgf(apply_group(z, g=g), pw, ChainSpec("half-line", 1), Budget(tol=1e-10))
    ref = sp.beta(0.5, 0.7)
    assert abs(est.value * np.linalg.det(g) - ref) <= 1e-11 * ref


def test_ray_origin_rounding_stays_loud():
    # with a3 = -0.5 the origin carries kappa = 14, and a node's s stays off
    # the start while u = o + w s / D rounds onto o, the root of block 2;
    # the stretch it stands for is not negligible at every a3 < 0, so the
    # integral raises instead of dropping the node and returning a value,
    # until exact offsets from the piece start resolve u - o and end the
    # truncation of nodes whose offset rounds to an endpoint
    pw = PartitionWeight.from_flat((2, 2), (-1.5, 1.0, -0.5, -1.0), 2, 1, strict=False)
    with pytest.raises(RadonHGFError):
        radon_hgf(_FAR_Z, pw, ChainSpec("half-line", 1), Budget(tol=1e-10))


# (value, panels) recorded with the sequential integrator, which ran one
# half after another; the lock-step rounds bisect each half in the same
# order, so the panel counts are equal and the values agree to rounding
_PDE_BASE = {
    (1, 1, 1, 1): ((1.25 - 3.35, 1.55 - 1, 3.35 - 1.55 - 1, -1.25), -0.6, "interval-0-1",
                   0.2194648115417471, 6),
    (2, 1, 1): ((-2 - 0.45 - 0.55, 0.9, 0.45, 0.55), 0.8, "interval-0-1",
                0.5665534834698382, 8),
    (2, 2): ((-2 - 0.35, 1.0, 0.35, -1.0), -0.7, "half-line", 0.6696736998550447, 11),
}


def _pde_base(lam):
    flat, x, kind, _, _ = _PDE_BASE[lam]
    z = CoordMatrix(lam, 1, pattern(lam, 1, (np.array([[x]]),)))
    return z, PartitionWeight.from_flat(lam, flat, 2, 1, strict=False), ChainSpec(kind, 1)


@pytest.mark.parametrize("lam", list(_PDE_BASE))
def test_pde_base_points_keep_their_mesh(lam):
    value, panels = _PDE_BASE[lam][3:]
    est = radon_hgf(*_pde_base(lam), Budget(tol=5e-13))
    assert est.nodes_or_samples == panels
    assert abs(est.value - value) <= 1e-14 * abs(value)


def _two_path_base(lam):
    """A criterion-11 base point, or the table form of a partition of three
    with criterion 10's weight and chain."""
    if sum(lam) == 4:
        return _pde_base(lam)
    return (CoordMatrix(lam, 1, pattern(lam, 1)),
            PartitionWeight(lam, _LAM3_WEIGHTS[lam], 2, 1, strict=False),
            ChainSpec(_LAM3_CHAIN[lam], 1))


def _mapped_value(z, pw, chain, budget):
    """F(z) by the second path: det(g) chi(h)^-1 F(nf) at the table form
    nf = g z h from reduce_orbit, integrated over the same chain kind."""
    out = reduce_orbit(z)
    nf = CoordMatrix(z.lam, 1, pattern(z.lam, 1, out.x))
    return np.linalg.det(out.g) / chi_lambda(out.h, pw) * radon_hgf(nf, pw, chain, budget).value


@pytest.mark.parametrize("lam", list(_PDE_BASE) + list(_LAM3_WEIGHTS))
def test_chart_value_equals_mapped_table_value(lam):
    # at small perturbations s (N + iN) of the criterion-11 base points and
    # of the table forms of criterion 10 (partitions of three) the
    # root-following chart integral and the reduce-and-map path agree
    z0, pw, chain = _two_path_base(lam)
    gen = np.random.default_rng(5)
    budget = Budget(tol=5e-13)
    shape = z0.entries.shape
    for s in (0.02, 0.06):
        for _ in range(10):
            delta = s * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))
            z = z0.with_entries(z0.entries + delta)
            mapped = _mapped_value(z, pw, chain, budget)
            assert abs(radon_hgf(z, pw, chain, budget).value - mapped) <= 1e-12 * abs(mapped)


@pytest.mark.xfail(strict=True, reason="a block root crosses the chart chain between nodes")
def test_far_chart_value_equals_mapped_table_value():
    # 0.2 off the (2,2) base point the chart integral reads
    # 0.838350 - 0.236118i, claiming 2.0e-13 over 42 panels; the mapped
    # value is 1.144315 - 0.268563i, and its F(nf) matches the closed form
    # 2 b^(-c/2) K_c(2 sqrt(b)), b = -x, of the table form. Along the path
    # from the base point the two values part smoothly, so the chart
    # integral is continuous there but not analytic
    z0, pw, chain = _pde_base((2, 2))
    delta = np.array([[-0.18 + 0.10j, -0.17 - 0.08j, 0.07 + 0.15j, 0.29 - 0.01j],
                      [0.29 + 0.07j, 0.05 - 0.09j, -0.06 + 0.42j, -0.12 + 0.24j]])
    z = z0.with_entries(z0.entries + delta)
    budget = Budget(tol=5e-13)
    mapped = _mapped_value(z, pw, chain, budget)
    assert abs(radon_hgf(z, pw, chain, budget).value - mapped) <= 1e-12 * abs(mapped)


@pytest.mark.parametrize("kind, expected", [
    ("interval-0-1", (0.21026613584155757 + 0.6471326247050171j, 7)),
    ("half-line", OnBranchLocus),
    ("full-line", NonConvergent),
    # both rays run out their interval budget within ten times the
    # tolerance, and the value is 1.1% off the true 0.2735149953572178j:
    # each ray loses the stretch where 1 - s rounds to 0 at its far end,
    # where the weight is (1 - s)^-0.8, as nodes whose offset rounds to an
    # endpoint are truncated; the pin records this integrator's mesh and
    # moves when that end is resolved
    ("rotated-ray", (0.27658318042210567j, 8004)),
])
def test_chart_chain_kinds_keep_their_mesh(kind, expected):
    # the point of test_chart_chain_pieces; the half line and the full line
    # pass through block roots
    z = CoordMatrix((1, 1, 1, 1), 1, np.array([[1.0, 0.5, -1.0, 2.0], [0.0, 1.0, 2.0, 1.0]]))
    pw = PartitionWeight.from_flat((1, 1, 1, 1), (-0.8, -0.3, 0.4, -1.3), 2, 1, strict=False)
    if isinstance(expected, type):
        with pytest.raises(expected):
            radon_hgf(z, pw, ChainSpec(kind, 1))
        return
    est = radon_hgf(z, pw, ChainSpec(kind, 1))
    assert est.nodes_or_samples == expected[1]
    assert abs(est.value - expected[0]) <= 1e-14 * abs(expected[0])


@pytest.mark.parametrize("fam, kind, value, panels", [
    (NamedFamily("beta_r", {"a": 2.5, "b": 1.5}), "interval-0-1", 0.19634954084936146, 6),
    (NamedFamily("gamma_r", {"a": 2.5}), "half-line", 1.3293403881791328, 10),
    (NamedFamily("gaussian_r", {}), "full-line", 2.506628274630993, 14),
    (NamedFamily("airy", {}, X=np.array([[0.3]])), "rotated-ray", 1.7517927909661124j, 16),
    (NamedFamily("bessel", {"c": 2.0}, X=np.array([[-0.5]])), "half-line", 2.7339389374332597, 11),
])
def test_integrate_r1_keeps_its_mesh(fam, kind, value, panels):
    est = integrate_r1(fam, ChainSpec(kind, 1), tol=1e-12)
    assert est.nodes_or_samples == panels
    assert abs(est.value - value) <= 1e-14 * abs(value)


# a ray from 0.2 along i whose Moebius arc ends at -0.6 + 1.6i: it is not
# cut, and its halves are on the arc o + w s / D(s)
_ARC = dict(origin=0.2, phase=math.pi / 2, far=-0.6 + 1.6j)


@pytest.mark.parametrize("exponent, arc", [
    (None, None),
    (-0.5, None),
    (None, _ARC),
    (-0.5, _ARC),
])
def test_gk15_lone_panel_rounds_as_in_a_batch(exponent, arc):
    # a panel's estimates do not depend on the panels that share its call:
    # alone, the first half's panel rounds as in one call with panels of
    # its own half and of halves in all four (kappa > 1, on arc)
    # combinations, the halves of a segment and of a ray
    first = Segment(0.1, 1.5, exponent) if arc is None else Ray(exp0=exponent, **arc)
    place = integrate._place([first, Segment(0.6, -0.2, None, -0.5),
                              Ray(exp_far=-0.5, **_ARC)], 1e-12)
    kappa, on_arc, _ = maps = place.maps
    assert (kappa[0] > 1, on_arc[0]) == (exponent is not None, arc is not None)
    assert [(kappa[i] > 1, on_arc[i]) for i in range(2, 6)] == [
        (False, False), (True, False), (False, True), (True, True)]
    spans = [(0.0, 0.5), (0.5, 0.75), (0.75, 1.0), (0.25, 0.5), (0.125, 0.375)]

    def f(u, which):
        return np.exp((0.3 + 1j) * u) / (1.7 - u)

    every = np.arange(len(kappa))
    batch = integrate._gk15(f, maps, every, np.array([spans] * len(kappa)), 0 * every)
    one = np.zeros(1, dtype=int)
    for k, span in enumerate(spans):
        alone = integrate._gk15(f, maps, one, np.array([[span]]), one)
        assert alone.tolist() == [[batch[0, k].tolist()]]


def test_gk15_rules_are_exact_to_their_degrees():
    # the Kronrod rule integrates u^k over [-1, 1] to double precision up
    # to k = 22, and the embedded Gauss rule, on the 7-point Gauss-Legendre
    # nodes, up to k = 13; with 15-digit constants the Kronrod weights
    # summed to 2 - 6.0e-15
    x, (kronrod, gauss) = integrate._GK_X, integrate._GK_KG.real.T
    on = gauss != 0.0
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.allclose(np.sort(x[on]), nodes, rtol=0, atol=_EPS)
    assert np.allclose(gauss[on][np.argsort(x[on])], weights, rtol=0, atol=2 * _EPS)
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(kronrod @ x**k - exact) <= _EPS
        if k <= 13:
            assert abs(gauss @ x**k - exact) <= _EPS
    # a constant integrates to itself, within its claimed error
    est = integrate_pieces(lambda u: 1 + 0 * u, [Segment(0.0, 1.0)])
    assert abs(est.value - 1.0) <= max(est.abs_error_est, _EPS)


def _python_halves(piece, tol):
    """The halves of a segment or a ray as Python arithmetic on one point
    places them: per half its columns (start, span, end, o, w, q), kappa,
    tolerance share and sign."""
    def split(a, b, exp_a, exp_b, atol, arc, sign):
        mid = 0.5 * (a + b)
        return [(a, mid, exp_a, 0.5 * atol, sign, arc), (b, mid, exp_b, 0.5 * atol, -sign, arc)]

    if isinstance(piece, Segment):
        halves = split(piece.a, piece.b, piece.exp_a, piece.exp_b, tol, (0.0, 1.0, 0.0), 1.0)
    else:
        w = cmath.exp(1j * piece.phase)
        q = 0.0 if piece.far is None else w / (piece.far - piece.origin)
        cuts = [0.0, 1.0]
        if q.imag == 0.0 and q.real < 0.0:
            cuts.insert(1, 1.0 / (1.0 - q.real))
        share = tol / (len(cuts) - 1)
        halves = []
        for a, b in zip(cuts, cuts[1:]):
            halves += split(a, b, piece.exp0 if a == 0.0 else None,
                            piece.exp_far if b == 1.0 else None, share, (piece.origin, w, q), 1.0)
    return (np.array([(a, mid - a, mid, *arc) for a, mid, *_, arc in halves], dtype=np.complex128),
            np.array([integrate._power_kappa(h[2]) for h in halves], dtype=float),
            np.array([h[3] for h in halves]), [h[4] for h in halves])


def _signed_zeros(gen, count):
    """Complex numbers whose parts are normal draws or zeros of either sign."""
    parts = gen.standard_normal((2, count))
    parts[gen.random((2, count)) < 0.3] = 0.0
    parts[gen.random((2, count)) < 0.5] *= -1.0
    return [complex(x, y) for x, y in parts.T]


def test_placement_rounds_as_python_on_each_point():
    # a stack's columns are those of Python arithmetic on each point alone,
    # signed zeros included: the midpoint 0.5 (a + b), the quotient
    # q = w / (far - o) and the cut 1 / (1 - Re q) of a ray whose far end
    # lies behind its origin; rays to inf (None), ahead and behind mix. The
    # numbers come as object arrays of Python numbers, as block roots do
    gen = np.random.default_rng(3)
    K, tol = 300, 5e-13
    a, b = _signed_zeros(gen, K), _signed_zeros(gen, K)
    origin = [complex(x.real, y.imag) for x, y in zip(a, b)]
    # at inf, then along the real line ahead of or behind the origin, then
    # off it
    far = [None if i % 5 == 0 else o + (1.0 + abs(x)) * (1.0 if i % 3 else -1.0) if i % 2
           else o + complex(1.0 + abs(x.real), x.imag) for i, (o, x) in enumerate(zip(origin, b))]
    pieces = [Segment(np.array(a, dtype=object), np.array(b, dtype=object), -0.5, None),
              Ray(np.array(origin, dtype=object), 0.0, None, np.array(far, dtype=object), -0.3)]
    place = integrate._place(pieces, tol, K)
    kappa, _, cols = place.maps
    for k in range(K):
        ref = [_python_halves(Segment(a[k], b[k], -0.5, None), tol),
               _python_halves(Ray(origin[k], 0.0, None, far[k], -0.3), tol)]
        rows = slice(place.rows[k].start, place.rows[k].stop)
        assert cols[rows].tobytes() == np.concatenate([r[0] for r in ref]).tobytes()
        assert kappa[rows].tobytes() == np.concatenate([r[1] for r in ref]).tobytes()
        assert place.atol[rows].tobytes() == np.concatenate([r[2] for r in ref]).tobytes()
        assert place.signs[rows] == ref[0][3] + ref[1][3]
    assert sorted({len(r) for r in place.rows}) == [4, 6]


# the point of test_chart_chain_pieces, whose block 1 root is at inf
_CHAIN_Z = CoordMatrix((1, 1, 1, 1), 1, np.array([[1.0, 0.5, -1.0, 2.0], [0.0, 1.0, 2.0, 1.0]]))
_CHAIN_PW = PartitionWeight.from_flat((1, 1, 1, 1), (-0.8, -0.3, 0.4, -1.3), 2, 1, strict=False)


@pytest.mark.parametrize("case", ["interval", "half-line", "far behind", "full-line",
                                  "rotated-ray"])
def test_stack_placement_equals_one_point_placement(case):
    # every point's rows in the placement of a stencil stack hold what the
    # placement of that point's stack of one holds, bit for bit: maps,
    # kappa, arc flags, shares, signs and no failures; the rows of each
    # point follow those of the point before
    if case == "interval":
        z0, pw, chain = _pde_base((1, 1, 1, 1))
    elif case == "half-line":
        z0, pw, chain = _pde_base((2, 2))
    elif case == "far behind":
        z0, pw, chain = _FAR_Z, _FAR_PW, ChainSpec("half-line", 1)
    else:
        z0, pw, chain = _CHAIN_Z, _CHAIN_PW, ChainSpec(case, 1)
    points = _registered_points(z0)
    roots, infinite = integrate._block_roots(pw.lam, np.stack([z.entries for z in points]))
    place = integrate._place(integrate._roots_pieces(roots, infinite, pw, chain), 5e-13,
                             len(points))
    for k, z in enumerate(points):
        alone = integrate._place(_chart_pieces(z, pw, chain), 5e-13, 1)
        rows = slice(place.rows[k].start, place.rows[k].stop)
        assert rows.start == (place.rows[k - 1].stop if k else 0)
        assert place.maps[2][rows].tobytes() == alone.maps[2].tobytes()
        for mine, theirs in zip((*place.maps[:2], place.atol), (*alone.maps[:2], alone.atol)):
            assert mine[rows].tobytes() == theirs.tobytes()
        assert place.signs[rows] == alone.signs
        assert place.failures[rows] == alone.failures == [None] * len(alone.signs)
    # a ray that is cut gives its point two halves more
    strands = 2 if case in ("full-line", "rotated-ray") else 1
    cut = sum(len(r) > 2 * strands for r in place.rows)
    if case == "half-line":
        # the rays of 12 points are cut where the arc passes through inf
        assert cut == 12
    elif case == "far behind":
        assert cut == len(points)
    elif case == "full-line":
        # at some points the stencil moves the root of block 1 from inf onto
        # the real line behind the origin of one of the rays, which is cut
        assert cut >= 1


def test_integrand_called_once_per_round(monkeypatch):
    # the (2,2) base point has two halves, of 6 and 5 panels: a first round
    # with one panel each, four rounds in which both bisect, and a last
    # round in which only the first does
    z, pw, chain = _pde_base((2, 2))
    sizes = _counting_integrands(monkeypatch)
    est = radon_hgf(z, pw, chain, Budget(tol=5e-13))
    assert est.nodes_or_samples == 11
    assert sizes == [30, 60, 60, 60, 60, 30]
    assert len(sizes) < est.nodes_or_samples


_EPS = np.finfo(float).eps


def _stencil_points(z0):
    """The points at which apply_DIJ evaluates F for one pair: two steps,
    two permutations, four corners each."""
    points = []

    def F(z):
        points.append(z)
        return 0.0

    apply_DIJ(F, z0, MultiIndexPair((1, 2), (2, 3)))
    assert len(points) == 16
    return points


def _counting_integrands(monkeypatch):
    """Count the calls of every r = 1 chart integrand made from now on."""
    calls = []
    make = integrate.scalar_chart_function

    def counting(entries, pw):
        f = make(entries, pw)

        def g(u, which):
            calls.append(np.size(u))
            return f(u, which)

        return g

    monkeypatch.setattr(integrate, "scalar_chart_function", counting)
    return calls


def _perturbed_base(lam, seed):
    """A perturbed base point of the family lam, drawn as the pde-r1
    benchmark draws one cycle: by scale 0.06 from one generator over the
    three families in turn, with the pole of the first (2,2) block kept off
    the ray."""
    z0, pw, chain = _pde_base(lam)
    gen = np.random.default_rng(seed)
    for family in _PDE_BASE:
        entries = _pde_base(family)[0].entries + 0.06 * gen.standard_normal((2, 4))
        if family == lam:
            break
    if lam == (2, 2):
        entries[1, 0] = abs(entries[1, 0]) + 0.02
    return z0.with_entries(entries), pw, chain


def _registered_points(z0):
    """The 96 distinct points that verify_system registers at z0."""
    points = []
    report = verify_system(lambda z: points.append(z) or 1.0, z0, all_pairs(2, 4, 1))
    assert report["points"] == len(points) == 96
    return points


# the base points of the three families, and each perturbed as the pde-r1
# benchmark draws one cycle with three seeds
_STENCIL_CASES = [
    pytest.param(lam, seed, id=f"lam{i}" if seed is None else f"lam{i}-{seed}")
    for seed in (None, 0, 1, 2) for i, lam in enumerate(_PDE_BASE)
]


def _stencil_case(lam, seed):
    return _pde_base(lam) if seed is None else _perturbed_base(lam, seed)


@pytest.mark.parametrize("lam, seed", _STENCIL_CASES)
def test_scoped_stencil_values_match_unscoped(lam, seed):
    # every point of a check's stack bisects its own halves, so it has the
    # panels that it has alone, in the same order, and the estimate that it
    # has alone bit for bit
    z0, pw, chain = _stencil_case(lam, seed)
    points = _registered_points(z0)
    unscoped = [radon_hgf(z, pw, chain, Budget(tol=5e-13)) for z in points]
    with integrate._mesh_scope(points):
        scoped = [radon_hgf(z, pw, chain, Budget(tol=5e-13)) for z in points]
    for s, u in zip(scoped, unscoped):
        assert s == u


@pytest.mark.parametrize("lam, seed", _STENCIL_CASES)
def test_verify_system_integrand_calls_are_bounded(monkeypatch, lam, seed):
    # all 96 stencil points of a check are one stack, which calls the
    # integrand once per round for all its open points: as many calls as
    # the point with the most rounds makes alone, and the nodes of all the
    # lone runs; one integral per point took about 99 calls
    z0, pw, chain = _stencil_case(lam, seed)
    points = _registered_points(z0)
    calls = _counting_integrands(monkeypatch)
    rounds, nodes = [], 0
    for z in points:
        del calls[:]
        radon_hgf(z, pw, chain, Budget(tol=5e-13))
        rounds.append(len(calls))
        nodes += sum(calls)
    del calls[:]

    def F(z):
        return radon_hgf(z, pw, chain, Budget(tol=5e-13)).value

    report = verify_system(F, z0, all_pairs(2, 4, 1))
    assert report["pass"]
    assert len(calls) == max(rounds)
    assert sum(calls) == nodes


@pytest.mark.parametrize("lam", list(_PDE_BASE))
def test_verify_system_checks_its_points_once(monkeypatch, lam):
    # the 96 stencil points of a check are built by one entries check,
    # tested for membership in Z_lambda by one test of all their minors,
    # and placed on their chain from one block-roots call, by one set of
    # chain pieces whose numbers are arrays over the points; point by
    # point, each ran 96 times. The stack's integrand reads each row of
    # nodes with one point, so it gets a point per row, not per node
    z0, pw, chain = _pde_base(lam)
    counts = {"_checked_entries": 0, "_vanishing_minors": 0, "_block_roots": 0,
              "_chain_pieces": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    for module, names in ((grassmann, counts.keys() - {"_block_roots", "_chain_pieces"}),
                          (integrate, ("_block_roots", "_chain_pieces"))):
        for name in names:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    shapes = []
    make = integrate.scalar_chart_function

    def recording(entries, pw):
        f = make(entries, pw)

        def g(u, which):
            shapes.append((np.shape(u), len(which)))
            return f(u, which)

        return g

    monkeypatch.setattr(integrate, "scalar_chart_function", recording)

    def F(z):
        return radon_hgf(z, pw, chain, Budget(tol=5e-13)).value

    report = verify_system(F, z0, all_pairs(2, 4, 1))
    assert report["pass"]
    assert report["points"] == 96
    assert counts == {"_checked_entries": 1, "_vanishing_minors": 1, "_block_roots": 1,
                      "_chain_pieces": 1}
    assert shapes and all(len(shape) == 2 and which == shape[0] for shape, which in shapes)


@pytest.mark.parametrize("lam", list(_PDE_BASE))
def test_seeded_run_from_a_coarse_mesh_meets_the_tolerance(lam):
    # the scope holds the 1e-8 stack of the stencil when a 5e-13 call comes;
    # no coarse panel seeds that call: it runs a stack of its own, meets its
    # tolerance, and uses more panels than the coarse stack gave the point
    z0, pw, chain = _pde_base(lam)
    points = _stencil_points(z0)
    second = points[1]
    value = radon_hgf(second, pw, chain, Budget(tol=5e-13)).value
    with integrate._mesh_scope(points):
        radon_hgf(z0, pw, chain, Budget(tol=1e-8))
        coarse = radon_hgf(second, pw, chain, Budget(tol=1e-8))
        scoped = radon_hgf(second, pw, chain, Budget(tol=5e-13))
        assert len(integrate._SCOPE.get().stacks) == 2
    assert abs(scoped.value - value) <= 5e-13 * abs(value)
    assert scoped.abs_error_est <= 5e-13 * abs(value)
    assert scoped.nodes_or_samples > coarse.nodes_or_samples


def test_second_stencil_point_calls_the_integrand_once(monkeypatch):
    # stacked with the first stencil point, the second is evaluated in the
    # one integrand call of each round: it adds no call of its own, and its
    # F call is served from the stack without calling the integrand
    z0, pw, chain = _pde_base((2, 2))
    first, second = _stencil_points(z0)[:2]
    calls = _counting_integrands(monkeypatch)
    unscoped = radon_hgf(second, pw, chain, Budget(tol=5e-13))
    rounds = len(calls)
    del calls[:]
    radon_hgf(first, pw, chain, Budget(tol=5e-13))
    assert len(calls) == rounds
    seen = []
    make = integrate.scalar_chart_function

    def recording(entries, pw):
        f = make(entries, pw)
        return lambda u, which: seen.append(set(which.tolist())) or f(u, which)

    monkeypatch.setattr(integrate, "scalar_chart_function", recording)
    with integrate._mesh_scope([first, second]):
        radon_hgf(first, pw, chain, Budget(tol=5e-13))
        assert seen == [{0, 1}] * rounds
        scoped = radon_hgf(second, pw, chain, Budget(tol=5e-13))
    assert len(seen) == rounds
    assert scoped.nodes_or_samples == unscoped.nodes_or_samples
    assert abs(scoped.value - unscoped.value) <= 4 * _EPS * abs(unscoped.value)


def test_unregistered_point_runs_alone(monkeypatch):
    # a point that is not registered runs its stack of one, as an unscoped
    # call does; another tolerance at a registered point runs a stack of
    # its own
    z0, pw, chain = _pde_base((2, 2))
    points = _stencil_points(z0)
    calls = _counting_integrands(monkeypatch)
    with integrate._mesh_scope(points[:8]):
        radon_hgf(points[0], pw, chain, Budget(tol=5e-13))
        first = len(calls)
        alone = radon_hgf(points[8], pw, chain, Budget(tol=5e-13))
        scoped_calls = calls[first:]
        coarse = radon_hgf(points[1], pw, chain, Budget(tol=1e-8))
        assert len(integrate._SCOPE.get().stacks) == 2
    del calls[:]
    assert alone == radon_hgf(points[8], pw, chain, Budget(tol=5e-13))
    assert scoped_calls == calls
    unscoped = radon_hgf(points[1], pw, chain, Budget(tol=1e-8))
    assert coarse.nodes_or_samples == unscoped.nodes_or_samples
    assert abs(coarse.value - unscoped.value) <= 4 * _EPS * abs(unscoped.value)


def test_failing_integral_records_no_mesh():
    # the full-line point of test_chart_chain_kinds_keep_their_mesh, as the
    # first of a stack with a later point: the scope keeps its error only
    z = CoordMatrix((1, 1, 1, 1), 1, np.array([[1.0, 0.5, -1.0, 2.0], [0.0, 1.0, 2.0, 1.0]]))
    pw = PartitionWeight.from_flat((1, 1, 1, 1), (-0.8, -0.3, 0.4, -1.3), 2, 1, strict=False)
    chain = ChainSpec("full-line", 1)
    later = z.with_entries(z.entries + 1e-3)
    with pytest.raises(NonConvergent) as unscoped:
        radon_hgf(z, pw, chain)
    with integrate._mesh_scope([z, later]):
        with pytest.raises(NonConvergent) as scoped:
            radon_hgf(z, pw, chain)
        outcomes = integrate._SCOPE.get().stacks[(pw, chain, Budget().tol)]
    assert str(scoped.value) == str(unscoped.value)
    # the failure closed the later point, which has no outcome
    assert list(outcomes) == [integrate._point_key(z)]


def _outcome(call):
    """The estimate of a call, or the type and message of its error."""
    try:
        return call()
    except RadonHGFError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("error, entries, flat, kind", [
    # the columns of blocks 1 and 2 are proportional: a weight-2 minor vanishes
    (NotInZLambda, [[1.0, 0.5, -1.0, 2.0], [0.0, 0.0, 2.0, 1.0]], (-0.8, -0.3, 0.4, -1.3),
     "interval-0-1"),
    # the root of block 2 is at infinity, and the interval ends there
    (IncompatibleChain, [[1.0, 0.5, -1.0, 2.0], [1.0, 0.0, 2.0, 1.0]], (-0.8, -0.3, 0.4, -1.3),
     "interval-0-1"),
    # the interval starts at the root of block 2, with the exponent -1.2 there
    (DivergentEndpoint, _CHAIN_Z.entries, (-0.8, -1.2, 1.3, -1.3), "interval-0-1"),
    (OnBranchLocus, _CHAIN_Z.entries, (-0.8, -0.3, 0.4, -1.3), "half-line"),
    (ShapeMismatch, np.vstack([_CHAIN_Z.entries, [1.0] * 4]), (-0.8, -0.3, 0.4, -1.3),
     "interval-0-1"),
    # the roots of blocks 1 and 2 coincide, where the half line would start
    # and end; in a stack the point is placed at stand-in roots
    (NotInZLambda, [[1.0, 1.0, -1.0, 2.0], [2.0, 2.0, 2.0, 1.0]], (-0.8, -0.3, 0.4, -1.3),
     "half-line"),
    # the root of block 2 is at infinity; -1, what its column gives in its
    # place, is the root of block 1
    (IncompatibleChain, [[1.0, 1.0, -1.0, 2.0], [1.0, 0.0, 2.0, 1.0]], (-0.8, -0.3, 0.4, -1.3),
     "half-line"),
] + [
    # the root of block 1 is at 0, where a ray pair starts and would end.
    # The interval runs through it; on the half line, from block 2's root
    # -0.5, the first node rounds onto that root (kappa = 10)
    (OnBranchLocus, [[0.0, 0.5, -1.0, 2.0], [1.0, 1.0, 2.0, 1.0]], (-0.8, -0.3, 0.4, -1.3), kind)
    for kind in ("interval-0-1", "half-line", "full-line", "rotated-ray")
])
def test_lone_point_error_is_the_same_in_a_scope(error, entries, flat, kind):
    # every r = 1 call is a stack: a point's error has the type and the
    # message it has alone when the point is registered after another
    # point of a scope, before it, and when the scope holds only the other
    # point. Registered first, the point closes the other, whose later call
    # then runs alone
    z = CoordMatrix((1, 1, 1, 1), 1, np.array(entries))
    pw = PartitionWeight.from_flat((1, 1, 1, 1), flat, 2, 1, strict=False)
    chain = ChainSpec(kind, 1)
    with pytest.raises(error) as alone:
        radon_hgf(z, pw, chain)
    other = z.with_entries(z.entries + 1e-3)
    other_alone = _outcome(lambda: radon_hgf(other, pw, chain))
    for points in ([other, z], [other], [z, other]):
        with integrate._mesh_scope(points):
            with pytest.raises(error) as scoped:
                radon_hgf(z, pw, chain)
            if points[0] is z:
                stacks = integrate._SCOPE.get().stacks.values()
                assert all(integrate._point_key(other) not in out for out in stacks)
                assert _outcome(lambda: radon_hgf(other, pw, chain)) == other_alone
        assert type(scoped.value) is type(alone.value)
        assert str(scoped.value) == str(alone.value)


def test_replayed_half_that_runs_out_of_panels_raises_as_unscoped(monkeypatch):
    # the (2,2) base point's halves take 6 and 5 panels at 5e-13; with 4
    # allowed, its stack gives up after four rounds, as it does alone, and
    # the F call is served that error from the stack
    z0, pw, chain = _pde_base((2, 2))
    points = _stencil_points(z0)
    monkeypatch.setattr(integrate, "_MAX_INTERVALS", 4)
    with pytest.raises(NonConvergent) as unscoped:
        radon_hgf(points[0], pw, chain, Budget(tol=5e-13))
    with integrate._mesh_scope(points):
        with pytest.raises(NonConvergent) as scoped:
            radon_hgf(points[0], pw, chain, Budget(tol=5e-13))
    assert "interval budget 4 exhausted" in str(scoped.value)
    assert str(scoped.value) == str(unscoped.value)


def test_point_is_not_held_up_by_a_runaway_point():
    # two points of one segment, the first sharply peaked at 0.3 and the
    # second smooth, with a broad bump at 0.1: the second closes in the
    # rounds it takes alone, while the first goes on bisecting its own
    # halves, and its estimate is that of its one-point run (on panels
    # shared with the first, it took 26 panels where it takes 6 alone)
    def peaked(u):
        return 1.0 / ((u - 0.3) * (u - 0.3) + 1e-8)

    def smooth(u):
        return 1.0 / ((u - 0.1) * (u - 0.1) + 0.01)

    def f(u, which):
        return np.where(which[:, None] == 0, peaked(u), smooth(u))

    tol = 1e-10
    ends = [np.array([x, x], dtype=object) for x in (0.0, 1.0)]
    runaway, point = integrate._lockstep(f, integrate._place([Segment(*ends)], tol, 2), tol)
    alone = integrate_pieces(smooth, [Segment(0.0, 1.0)], tol)
    assert point == alone
    assert runaway == integrate_pieces(peaked, [Segment(0.0, 1.0)], tol)
    assert runaway.nodes_or_samples > 4 * alone.nodes_or_samples


def test_stack_that_drops_nodes_equals_its_lone_runs():
    # under the start exponent -0.9 a half maps tau to start + span tau^40,
    # so the offsets of its nodes near tau = 0 round to the start: those
    # nodes are dropped, and the end of the half stands in for them in the
    # call. The stack still calls f with a row per (half, point) pair, and
    # each point's estimate is its one-point run
    starts = np.array([0.5, 0.25 + 0.5j, -1.0 + 0.1j])
    ends = starts + np.array([1.0, 0.75 - 0.5j, 2.0])
    tol = 1e-13

    def g(u, a):
        return np.exp((0.3 + 1j) * u) / (3.0 - u + a)

    calls = []

    def f(u, which):
        calls.append((u, which))
        return g(u, starts[which][:, None])

    segment = Segment(*(np.array(v.tolist(), dtype=object) for v in (starts, ends)), -0.9)
    stack = integrate._lockstep(f, integrate._place([segment], tol, 3), tol)
    assert all(u.ndim == 2 and len(which) == len(u) for u, which in calls)
    mids = 0.5 * (starts + ends)
    for k in range(3):
        assert any((u[which == k] == mids[k]).any() for u, which in calls)
        alone = integrate_pieces(lambda u: g(u, starts[k]), [Segment(starts[k], ends[k], -0.9)],
                                 tol)
        assert stack[k] == alone


def test_no_point_after_a_failing_one_is_integrated(monkeypatch):
    # the stencil of test_stencil_crossing_branch_locus: a node of one
    # point lands on a block root; after the round in which that point
    # fails, the stack's integrand sees only earlier points
    pw = PartitionWeight((1, 1, 1), ((-1.3,), (-0.4,), (-0.3,)), 2, 1, strict=False)
    z0 = CoordMatrix((1, 1, 1), 1, pattern((1, 1, 1), 1))
    chain = ChainSpec("interval-0-1", 1)
    points = []
    apply_DIJ(lambda z: points.append(z) or 0.0, z0, MultiIndexPair((1, 2), (1, 2)),
              StencilPlan(h=1.2))
    registry = {integrate._point_key(z): z for z in points}
    calls = []
    make = integrate.scalar_chart_function

    def recording(entries, pw):
        f = make(entries, pw)

        def g(u, which):
            seen = set(which.tolist())
            try:
                out = f(u, which)
            except OnBranchLocus:
                calls.append((seen, True))
                raise
            calls.append((seen, False))
            return out

        return g

    monkeypatch.setattr(integrate, "scalar_chart_function", recording)
    outcomes = integrate._stack(registry, pw, chain, 1e-10)
    keys = list(registry)
    failing = next(i for i, key in enumerate(keys)
                   if isinstance(outcomes.get(key), RadonHGFError))
    assert isinstance(outcomes[keys[failing]], OnBranchLocus)
    assert all(key not in outcomes for key in keys[failing + 1:])
    last = max(i for i, (seen, raised) in enumerate(calls) if raised and seen == {failing})
    assert all(max(seen) < failing for seen, _ in calls[last + 1:])
    # the next point runs out its interval budget when it runs alone, at
    # one call per bisection
    assert len(calls) < 100
    with pytest.raises(NonConvergent):
        radon_hgf(points[failing + 1], pw, chain, Budget(tol=1e-10))
    with pytest.raises(OnBranchLocus):
        radon_hgf(points[failing], pw, chain, Budget(tol=1e-10))


def test_failing_half_stops_a_later_half_at_its_round():
    # the first half refines towards 0.21 until it turns nan there, while
    # the second half is still calling f
    def window(u):
        return (u.real > 0.2095) & (u.real < 0.2105)

    def poles(u):
        v = 1.0 / (u - 0.7 - 0.0005j) + 1.0 / (u - 0.21 - 0.001j)
        v[window(u)] = np.nan
        return v

    calls = []
    with pytest.raises(NonConvergent) as plain:
        integrate_pieces(lambda u: calls.append(np.array(u)) or poles(u), [Segment(0.0, 1.0)],
                         tol=1e-12)
    assert str(plain.value) == "the integrand is not finite along the chain"
    assert (np.concatenate(calls[1:]).real > 0.5).any()
    # the round in which the first half fails is the last that calls f
    assert [i for i, u in enumerate(calls) if window(u).any()] == [len(calls) - 1]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_meaningless_tolerance_is_refused(tol):
    # the README example: nan and inf used to return a value good to 1.7e-4
    # after two panels, 0 and -1 to spend 4000 panels before NonConvergent
    a, b, c, x = 0.7, 1.3, 2.1, 0.4
    pw = PartitionWeight((1, 1, 1, 1), ((b - c,), (a - 1,), (c - a - 1,), (-b,)), 2, 1,
                         strict=False)
    z = CoordMatrix((1, 1, 1, 1), 1, pattern((1, 1, 1, 1), 1, (np.array([[x]]),)))
    message = f"tolerance must be positive and finite, got {tol}"
    with pytest.raises(ValueError, match=re.escape(message)):
        radon_hgf(z, pw, ChainSpec("interval-0-1", 1), Budget(tol=tol))
    # the same inside a scope that registered the point among others
    with integrate._mesh_scope([z.with_entries(z.entries + 1e-3), z]):
        with pytest.raises(ValueError, match=re.escape(message)):
            radon_hgf(z, pw, ChainSpec("interval-0-1", 1), Budget(tol=tol))
    with pytest.raises(ValueError, match=re.escape(message)):
        integrate_r1(NamedFamily("beta_r", {"a": 2.5, "b": 1.5}), ChainSpec("interval-0-1", 1),
                     tol=tol)
    calls = []
    with pytest.raises(ValueError, match=re.escape(message)):
        integrate_pieces(calls.append, [Segment(0.0, 1.0)], tol=tol)
    assert calls == []


def test_chain_of_no_pieces_is_refused():
    # it used to raise numpy's ValueError from an empty concatenation
    calls = []
    with pytest.raises(IncompatibleChain, match="at least one piece"):
        integrate_pieces(calls.append, [])
    assert calls == []


def test_growing_ray_raises():
    # bessel's kernel grows like exp(x u) along the half line when x > 0
    fam = NamedFamily("bessel", {"c": 2.0}, X=np.array([[0.5]]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonConvergent):
        integrate_r1(fam, ChainSpec("half-line", 1))


@pytest.mark.parametrize("fam, kind, r", [
    (NamedFamily("beta_r", {"a": 1.0, "b": 3.0}), "interval-0-1", 2),  # p = -1
    (NamedFamily("beta_r", {"a": 3.0, "b": 0.0}), "interval-0-1", 1),  # q = -1
    (NamedFamily("gauss", {"a": 0.0, "b": 1.0, "c": 3.0}, X=np.array([[0.2]])),
     "interval-0-1", 1),
    (NamedFamily("gamma_r", {"a": 1.0}), "half-line", 2),  # p = -1
    (NamedFamily("bessel", {"c": 3.0}, X=np.eye(2)), "half-line", 2),  # rate = -1
    (NamedFamily("airy", {}), "rotated-ray", 2),  # no eigenvalue weight
])
def test_eigen_rule_and_mc_density_refuse_the_same_weights(fam, kind, r):
    with pytest.raises(IncompatibleChain):
        integrate_invariant(fam, r)
    with pytest.raises(IncompatibleChain):
        integrate_haar_mc(fam, ChainSpec(kind, r), 16, RandomStream(1))


@pytest.mark.parametrize("kind, exponents, weight", [
    ("interval-0-1", (1.5, 2.5), lambda u: u**0.5 * (1.0 - u) ** 1.5),
    ("interval-0-1", (0.6, 1.3), lambda u: u**-0.4 * (1.0 - u) ** 0.3),
    ("half-line", (1.5, 1.0), lambda u: u**0.5 * np.exp(-u)),
    ("half-line", (2.2, 2.5), lambda u: u**1.2 * np.exp(-2.5 * u)),
    ("full-line", (), lambda u: np.exp(-0.5 * u * u)),
    ("interval-0-1", (1.5 + 0.3j, 2.5 - 0.2j),
     lambda u: u ** (0.5 + 0.3j) * (1.0 - u) ** (1.5 - 0.2j)),
    ("half-line", (2.2 + 0.3j, 2.5 + 0.4j),
     lambda u: u ** (1.2 + 0.3j) * np.exp(-(2.5 + 0.4j) * u)),
])
def test_chain_law_rule_and_sampler_share_one_weight(kind, exponents, weight):
    # at r = 1 the draws follow the weight's modulus over its mass, the mass
    # is what the moduli of the Gauss rule's weights add up to, and each
    # draw's mass m is the weight over that density
    rule, sample = integrate._chain_law(kind, exponents, 1)
    nodes, w = rule(32)
    lam, mass = sample(RandomStream(3).generator(), 4096)
    total = np.sum(np.abs(w))
    over_density = weight(lam) * total / np.abs(weight(lam))
    assert np.allclose(mass, over_density, rtol=1e-12, atol=0.0)
    # the draws' mean is the rule's mean of that density, within 5 standard errors
    mean = np.sum(np.abs(w) * nodes) / total
    sd = math.sqrt(np.sum(np.abs(w) * (nodes - mean) ** 2) / total)
    assert abs(lam.mean() - mean) < 5.0 * sd / math.sqrt(len(lam))


def test_counts_out_of_range_raise_typed_errors():
    with pytest.raises(ShapeMismatch):
        ChainSpec("half-line", 0)
    with pytest.raises(ShapeMismatch):
        integrate_invariant(NamedFamily("gamma_r", {"a": 3.0}), 0)
    # the error estimate needs a coarser rule of at least r nodes
    for r, nodes in ((1, 1), (2, 2), (3, 3), (4, 2)):
        with pytest.raises(UnsupportedCount):
            integrate_invariant(NamedFamily("gamma_r", {"a": 5.0}), r, nodes=nodes)
    for samples in (0, 1):  # one sample has no spread to estimate an error from
        with pytest.raises(UnsupportedCount):
            integrate_haar_mc(NamedFamily("gamma_r", {"a": 3.0}), ChainSpec("half-line", 2),
                              samples, RandomStream(1))


def test_radon_rejects_chain_of_another_size():
    pw = PartitionWeight((2, 1), ((-3.5, -1.0), (1.5,)), 2, 1, strict=False)
    z = CoordMatrix((2, 1), 1, pattern((2, 1), 1))
    with pytest.raises(ShapeMismatch):
        radon_hgf(z, pw, ChainSpec("half-line", 2))
