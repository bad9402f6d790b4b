import numpy as np
import pytest

from radon_hgf.characters import GroupElement, PartitionWeight, chi_lambda
from radon_hgf.errors import (
    BranchCutWarning,
    OnBranchLocus,
    OutOfDomain,
    SingularBlock,
    UnpinnedAlpha,
    UnsupportedPartition,
)
from radon_hgf.grassmann import ChartPoint, CoordMatrix
from radon_hgf.integrands import (
    FAMILIES,
    FULL_LINE,
    HALF_LINE,
    INTERVAL,
    IntegrandSpec,
    NamedFamily,
    chart_integrand_batch,
    evaluate_frame,
    evaluate_integrand,
    family_of_normal_form,
    named_integrand,
    named_integrand_batch,
)
from radon_hgf.integrate import scalar_chart_function
from radon_hgf.jordan import TruncPoly
from radon_hgf.linalg import haar_unitary_batch
from radon_hgf.normal_form import pattern
from radon_hgf.rng import RandomStream


def _herm(r, lo, hi, stream):
    lam = lo + (hi - lo) * stream.generator().random(r)
    v = haar_unitary_batch(r, 1, stream.jump(5))[0]
    return (v * lam) @ v.conj().T


def _spec(lam, r, alpha, xs=()):
    pw = PartitionWeight.from_flat(lam, alpha, 2 * r, r, strict=False)
    z = CoordMatrix(lam, r, pattern(lam, r, xs))
    return IntegrandSpec(pw, z)


def test_gamma_type_integrand():
    # kummer-free block with weight -1 on the exponential part gives
    # exp(-Tr u) (det u)^{a3}
    a3 = 0.7
    spec = _spec((2, 1), 2, (-2 * 2 - a3, -1.0, a3))
    u = _herm(2, 0.4, 1.6, RandomStream(71))
    val = evaluate_integrand(spec, ChartPoint(u))
    ref = np.exp(-np.trace(u)) * np.linalg.det(u) ** a3
    assert abs(val - ref) < 1e-13 * abs(ref)


def test_gaussian_type_integrand():
    spec = _spec((3,), 2, (-4.0, 0.0, 1.0))
    u = _herm(2, -1.0, 1.0, RandomStream(72))
    val = evaluate_integrand(spec, ChartPoint(u))
    ref = np.exp(-0.5 * np.trace(u @ u))
    assert abs(val - ref) < 1e-13 * abs(ref)


def test_scalar_gauss_closed_form():
    a, b, c = 0.9, 1.2, 2.4
    x = 0.3
    alpha = (b - c, a - 1, c - a - 1, -b)
    spec = _spec((1, 1, 1, 1), 1, alpha, (np.array([[x]]),))
    u = 0.2
    val = evaluate_integrand(spec, ChartPoint(np.array([[u]])))
    ref = u ** (a - 1) * (1 - u) ** (c - a - 1) * (1 - u * x) ** (-b)
    assert abs(val - ref) < 1e-14 * abs(ref)


def test_branch_locus_raises():
    spec = _spec((1, 1, 1), 1, (-1.3, -0.4, -0.3))
    with pytest.raises(OnBranchLocus):
        evaluate_integrand(spec, ChartPoint(np.array([[0.0]])))


def test_frame_homogeneity():
    # scaling the frame by g multiplies the value by (det g)^{-m}
    gen = RandomStream(74).generator()
    spec = _spec((2, 1), 2, (-2 * 2 - 0.7, -1.0, 0.7))
    u = _herm(2, 0.4, 1.6, RandomStream(75))
    t = np.concatenate([np.eye(2), u], axis=1)
    g = np.eye(2) + 0.1 * gen.standard_normal((2, 2))
    while np.linalg.det(g).real <= 0:
        g = np.eye(2) + 0.1 * gen.standard_normal((2, 2))
    v_base = evaluate_frame(spec, t)
    v_scaled = evaluate_frame(spec, g @ t)
    ref = np.linalg.det(g) ** (-4.0) * v_base
    assert abs(v_scaled - ref) < 1e-10 * abs(ref)


# the table partitions and their numbers of residual parameters
_TABLE = [((1, 1, 1), 0), ((2, 1), 0), ((3,), 0), ((1, 1, 1, 1), 1),
          ((2, 1, 1), 1), ((2, 2), 1), ((3, 1), 1), ((4,), 1)]


def _cnormal(gen, shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


@pytest.mark.parametrize("lam,k", _TABLE)
@pytest.mark.parametrize("r", [1, 2])
def test_chart_integrand_matches_character(lam, k, r):
    # reference: chi_lambda of the block images t z_q^(j) at the frame t = (1, u)
    gen = RandomStream(90 + 7 * r + sum(lam) + len(lam)).generator()
    xs = tuple(0.5 * _cnormal(gen, (r, r)) for _ in range(k))
    entries = pattern(lam, r, xs) + 0.2 * _cnormal(gen, (2 * r, sum(lam) * r))
    z = CoordMatrix(lam, r, entries)
    flat = 0.5 * _cnormal(gen, sum(lam))
    lead = np.cumsum((0,) + lam[:-1])
    flat[0] = -2 * r - flat[lead[1:]].sum()
    pw = PartitionWeight.from_flat(lam, flat, 2 * r, r, strict=False)
    spec = IntegrandSpec(pw, z)
    us = 0.5 * _cnormal(gen, (4, r, r))
    frames = np.concatenate([np.broadcast_to(np.eye(r), us.shape), us], axis=2)
    refs = [
        chi_lambda(GroupElement(tuple(
            TruncPoly.from_list([t @ z.block(j, q) for q in range(nk)])
            for j, nk in enumerate(lam)
        )), pw)
        for t in frames
    ]
    batch = chart_integrand_batch(spec, frames)
    scalar = scalar_chart_function(z, pw) if r == 1 else None
    for i, ref in enumerate(refs):
        assert abs(batch[i] - ref) <= 1e-13 * abs(ref)
        if scalar is not None:
            assert abs(scalar(us[i, 0, 0]) - ref) <= 1e-13 * abs(ref)


def test_unpinned_kummer_takes_product_argument():
    # the (2,1,1) chart integrand sees alpha_2 and x only as alpha_2 x
    r = 2
    al = [0.0, 0.6, 0.45, 0.65]
    al[0] = -2 * r - al[2] - al[3]
    x = _herm(r, 0.5, 1.5, RandomStream(78))
    fam = family_of_normal_form((2, 1, 1), x, al, r)
    spec = _spec((2, 1, 1), r, al, (x,))
    assert np.allclose(fam.X, 0.6 * x, rtol=0, atol=1e-15)
    for k in range(4):
        u = _herm(r, 0.05, 0.95, RandomStream(79 + k))
        val = evaluate_integrand(spec, ChartPoint(u))
        assert abs(val - named_integrand(fam, u)) < 1e-12 * abs(val)


def test_named_gauss_at_zero_argument():
    fam = NamedFamily("gauss", {"a": 1.4, "b": 0.9, "c": 3.0}, X=np.zeros((2, 2)))
    u = _herm(2, 0.1, 0.9, RandomStream(76))
    val = named_integrand(fam, u)
    ref = (
        np.linalg.det(u) ** (1.4 - 2)
        * np.linalg.det(np.eye(2) - u) ** (3.0 - 1.4 - 2)
    )
    assert abs(val - ref) < 1e-13 * abs(ref)


def test_named_gamma_scalar():
    fam = NamedFamily("gamma_r", {"a": 2.3})
    val = named_integrand(fam, np.array([[0.7]]))
    assert abs(val - np.exp(-0.7) * 0.7 ** 1.3) < 1e-14


def test_named_airy_scalar():
    fam = NamedFamily("airy", {}, X=np.array([[0.4]]))
    u = 0.6
    val = named_integrand(fam, np.array([[u]]))
    assert abs(val - np.exp(0.4 * u - u**3 / 3.0)) < 1e-14


def test_named_domain_guard():
    fam = NamedFamily("gamma_r", {"a": 2.3})
    with pytest.raises(OutOfDomain):
        named_integrand(fam, np.array([[-0.5]]))
    fam = NamedFamily("beta_r", {"a": 2.0, "b": 2.0})
    with pytest.raises(OutOfDomain):
        named_integrand(fam, np.array([[1.5]]))


def test_named_batch_matches_pointwise():
    fam = NamedFamily("kummer", {"a": 1.6, "c": 3.1}, X=0.4 * np.eye(2))
    s = RandomStream(77)
    us = np.stack([_herm(2, 0.1, 0.9, s.jump(k)) for k in range(6)])
    batch = named_integrand_batch(fam, us)
    for k in range(6):
        assert abs(batch[k] - named_integrand(fam, us[k])) < 1e-13


def test_named_batch_power_policy():
    # a zero determinant raises and one on the negative axis warns, at any
    # batch size
    fam = NamedFamily("gamma_r", {"a": 2.5})
    eye = np.eye(2, dtype=np.complex128)
    with pytest.raises(SingularBlock):
        named_integrand_batch(fam, np.stack([eye, np.diag([1.0, 0.0]) + 0j]))
    with pytest.warns(BranchCutWarning):
        named_integrand_batch(fam, np.stack([eye, np.diag([1.0, -2.0]) + 0j]))
    with pytest.raises(SingularBlock):
        named_integrand(fam, np.zeros((1, 1)), check_domain=False)


def test_unknown_family_tag_rejected():
    with pytest.raises(UnsupportedPartition):
        NamedFamily("scaled_gamma", {"a": 2.0})


def test_family_default_chains():
    assert {tag: entry.chains[0] for tag, entry in FAMILIES.items()} == {
        "beta_r": INTERVAL,
        "gauss": INTERVAL,
        "kummer": INTERVAL,
        "lauricella_fd": INTERVAL,
        "gamma_r": HALF_LINE,
        "bessel": HALF_LINE,
        "hermite_weber": HALF_LINE,
        "gaussian_r": FULL_LINE,
        "airy": "rotated-ray",
    }


_INVARIANT = {
    "beta_r": ({"a": 2.3 + 0.4j, "b": 3.1}, 0.0, ()),
    "gamma_r": ({"a": 2.7 + 0.3j}, 0.0, ()),
    "gaussian_r": ({}, 0.0, ()),
    "gauss": ({"a": 2.4, "b": 0.7, "c": 5.1}, 0.3, ()),
    "kummer": ({"a": 2.4, "c": 5.1}, -0.7, ()),
    "bessel": ({"c": 2.8}, -1.3 + 0.2j, ()),
    "lauricella_fd": ({"a": 2.4, "bs": (0.7, 1.1), "c": 5.3}, 0.0, (0.2, -0.3)),
}


@pytest.mark.parametrize("tag", sorted(_INVARIANT))
def test_family_remainder_matches_kernel(tag):
    # kernel(diag(lam)) = prod_i weight(lam_i) phi(lam_i), with the weight
    # given by the default chain and the endpoint exponents
    r = 2
    params, x, xs = _INVARIANT[tag]
    entry = FAMILIES[tag]
    fam = NamedFamily(tag, params, X=x * np.eye(r), xs=tuple(v * np.eye(r) for v in xs))
    e = [complex(v) for v in entry.exponents(fam.params, fam.X)]
    kind = entry.chains[0]
    if kind == INTERVAL:
        lam = np.array([0.2, 0.7])
        weight = lam ** (e[0] - r) * (1.0 - lam) ** (e[1] - r)
    elif kind == HALF_LINE:
        lam = np.array([0.6, 1.9])
        weight = lam ** (e[0] - r) * np.exp(-e[1] * lam)
    else:
        lam = np.array([-0.8, 1.3])
        weight = np.exp(-0.5 * lam**2)
    ref = np.prod(weight * entry.phi(fam.params, lam, x, xs))
    val = named_integrand(fam, np.diag(lam))
    assert abs(val - ref) < 1e-13 * abs(ref)


@pytest.mark.parametrize("lam,tag", [
    ((1, 1, 1, 1), "gauss"),
    ((2, 1, 1), "kummer"),
    ((2, 2), "bessel"),
    ((3, 1), "hermite_weber"),
    ((4,), "airy"),
])
def test_family_tags(lam, tag):
    pins = {
        (1, 1, 1, 1): [0.0, 0.5, 0.6, -1.1],
        (2, 1, 1): [0.0, 1.0, 0.5, 0.6],
        (2, 2): [0.0, 1.0, 0.5, -1.0],
        (3, 1): [0.0, 0.0, 1.0, -2.5],
        (4,): [0.0, 0.0, 0.0, 1.0],
    }[lam]
    lead = {
        (1, 1, 1, 1): [0, 1, 2, 3],
        (2, 1, 1): [0, 2, 3],
        (2, 2): [0, 2],
        (3, 1): [0, 3],
        (4,): [0],
    }[lam]
    pins[lead[0]] = -2.0 - sum(pins[i] for i in lead[1:])
    fam = family_of_normal_form(lam, np.eye(1) * 0.4, pins, 1)
    assert fam.tag == tag
    assert fam.dictionary  # the weight dictionary is recorded


def test_airy_family_records_reflection():
    fam = family_of_normal_form((4,), np.eye(1) * 0.4, [-2.0, 0.0, 0.0, 1.0], 1)
    assert fam.reflect_u
    assert np.allclose(fam.X, -0.4 * np.eye(1))


def test_unpinned_alpha_rejected():
    with pytest.raises(UnpinnedAlpha):
        family_of_normal_form((2, 2), np.eye(1), [-2.5, 1.0, 0.5, -0.5], 1)


def test_unsupported_partition():
    with pytest.raises(UnsupportedPartition):
        family_of_normal_form((5,), np.eye(1), [0, 0, 0, 1.0], 1)
