import math

import numpy as np
import pytest
import scipy.special as sp

from radon_hgf.characters import PartitionWeight
from radon_hgf.errors import IncompatibleChain, NotInvariant, NotInZLambda, RadonHGFError
from radon_hgf.grassmann import CoordMatrix
from radon_hgf.integrands import NamedFamily
from radon_hgf.integrate import (
    Budget,
    ChainSpec,
    integrate_haar_mc,
    integrate_invariant,
    integrate_r1,
    radon_hgf,
    weyl_constant,
)
from radon_hgf.normal_form import pattern
from radon_hgf.oracles import beta, beta_r_closed, gamma, gamma_r_closed, gauss_2f1
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


def test_invariant_error_estimate_is_honest():
    fam = NamedFamily("gamma_r", {"a": 2.5})
    est = integrate_invariant(fam, 2, nodes=64)
    ref = gamma_r_closed(2, 2.5)
    assert abs(est.value - ref) <= max(est.abs_error_est * 10, 1e-10 * abs(ref))


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
    fam = NamedFamily("gaussian_r", {})
    monkeypatch.setenv("RADON_HGF_THREADS", "abc")
    with pytest.raises(ValueError, match="RADON_HGF_THREADS"):
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


def test_radon_membership_checked():
    e = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    z = CoordMatrix((1, 1, 1), 1, e)
    pw = PartitionWeight((1, 1, 1), ((-0.9,), (-0.6,), (-0.5,)), 2, 1, strict=False)
    with pytest.raises(NotInZLambda):
        radon_hgf(z, pw, ChainSpec("interval-0-1", 1))


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


def test_invariance_probe_catches_violations():
    from radon_hgf.integrate import INTERVAL, _invariance_probe

    _invariance_probe(lambda u: complex(np.trace(u)), 2, INTERVAL)
    with pytest.raises(NotInvariant):
        _invariance_probe(lambda u: complex(u[0, 0]), 2, INTERVAL)


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
