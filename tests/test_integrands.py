import warnings

import numpy as np
import pytest

from radon_hgf.acceptance import _c13_gap
from radon_hgf.characters import GroupElement, PartitionWeight, chi_lambda
from radon_hgf.errors import (
    BranchCutWarning,
    OnBranchLocus,
    OutOfDomain,
    ShapeMismatch,
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
    _log_batch,
    _log_weight,
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


@pytest.mark.parametrize("r", [1, 2])
def test_frame_homogeneity(r):
    # scaling the frame by g multiplies the value by (det g)^{-m}, m = 2r;
    # at r = 1 the frame g t is (g, g u), not (1, u)
    gen = RandomStream(74).generator()
    spec = _spec((2, 1), r, (-2 * r - 0.7, -1.0, 0.7))
    u = _herm(r, 0.4, 1.6, RandomStream(75))
    t = np.concatenate([np.eye(r), u], axis=1)
    g = np.eye(r) + 0.1 * gen.standard_normal((r, r))
    while np.linalg.det(g).real <= 0:
        g = np.eye(r) + 0.1 * gen.standard_normal((r, r))
    v_base = evaluate_frame(spec, t)
    v_scaled = evaluate_frame(spec, g @ t)
    ref = np.linalg.det(g) ** (-2.0 * r) * v_base
    assert abs(v_scaled - ref) < 1e-10 * abs(ref)


@pytest.mark.parametrize("r", [1, 2])
def test_chart_branch_policy(r):
    # block 2 of the (1, 1, 1) table form has the leading form u: zero at
    # u = diag(0.5, 0), on the negative real axis at u = diag(0.5, -2)
    spec = _spec((1, 1, 1), r, (-2 * r + 0.7, -0.4, -0.3))
    eye = np.eye(r)

    def frames(last):
        u = np.diag([0.5] * (r - 1) + [last]).astype(np.complex128)
        return np.concatenate([eye, u], axis=1)[None]

    with pytest.raises(SingularBlock):
        chart_integrand_batch(spec, frames(0.0))
    with pytest.raises(OnBranchLocus):
        evaluate_frame(spec, frames(0.0)[0])
    with pytest.warns(BranchCutWarning):
        chart_integrand_batch(spec, frames(-2.0))
    if r == 1:
        f = _lone_chart_function(spec.z, spec.pw)
        with pytest.raises(OnBranchLocus):
            f(np.array([0.5, 0.0]))
        with pytest.warns(BranchCutWarning):
            f(np.array([-2.0]))
        # the r = 1 integrand is the batch at the frames (1, u), bit for bit
        us = np.array([0.3, 1.7 - 0.4j, -2.0, 5.0 + 1e-3j])
        t = np.stack([np.ones_like(us), us], axis=-1)[:, None, :]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BranchCutWarning)
            assert np.array_equal(f(us), chart_integrand_batch(spec, t))


# the table partitions and their numbers of residual parameters
_TABLE = [((1, 1, 1), 0), ((2, 1), 0), ((3,), 0), ((1, 1, 1, 1), 1),
          ((2, 1, 1), 1), ((2, 2), 1), ((3, 1), 1), ((4,), 1)]


def _cnormal(gen, shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def _lone_chart_function(z, pw):
    """The r = 1 chart integrand of z's stack of one, at the nodes of an
    array of any shape, taken as one row."""
    f = scalar_chart_function(z.entries[None], pw)
    return lambda u: f(u.reshape(1, -1), np.zeros(1, dtype=int)).reshape(u.shape)


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
    scalar = _lone_chart_function(z, pw) if r == 1 else None
    # the r = 1 evaluator at each point alone (0-d) and on all of them at once
    along = scalar(us[:, 0, 0]) if r == 1 else None
    for i, ref in enumerate(refs):
        assert abs(batch[i] - ref) <= 1e-13 * abs(ref)
        if scalar is not None:
            assert abs(scalar(us[i, 0, 0]) - ref) <= 1e-13 * abs(ref)
            assert abs(along[i] - ref) <= 1e-13 * abs(ref)


# the partitions of the three pde-r1 families, then the r = 1 (3, 1) and
# (4,) forms, whose blocks of length above 2 reach the longer-block branch
# of the chart exponent
@pytest.mark.parametrize("lam", [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)])
def test_stack_integrand_reads_rows_and_flat_nodes_alike(lam):
    # which labels the rows of a (rows, nodes) u with points, whose
    # coefficients are broadcast over a row's nodes; each row rounds as the
    # same nodes do in one flat row of its point's stack of one, although
    # numpy runs another inner loop for each
    gen = RandomStream(40 + sum(lam) + len(lam)).generator()
    base = pattern(lam, 1, (0.5 * _cnormal(gen, (1, 1)),))
    entries = base + 0.2 * _cnormal(gen, (3, 2, sum(lam)))
    flat = 0.5 * _cnormal(gen, sum(lam))
    lead = np.cumsum((0,) + lam[:-1])
    flat[0] = -2 - flat[lead[1:]].sum()
    pw = PartitionWeight.from_flat(lam, flat, 2, 1, strict=False)
    f = scalar_chart_function(entries, pw)
    u = _cnormal(gen, (6, 30))
    u[::2] = u[::2].real
    which = np.array([0, 1, 2, 2, 0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchCutWarning)
        rows = f(u, which)
    assert rows.shape == u.shape
    for k in range(3):
        alone = _lone_chart_function(CoordMatrix(lam, 1, entries[k]), pw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BranchCutWarning)
            assert rows[which == k].tobytes() == alone(u[which == k].ravel()).tobytes()


def test_chart_batch_raises_at_singular_block_before_inverting():
    # block 1 of the (2, 1, 1) point has leading form m0 = u, singular at
    # the second frame; the power raises before m0 is inverted
    r, lam = 2, (2, 1, 1)
    gen = RandomStream(5).generator()
    entries = _cnormal(gen, (2 * r, sum(lam) * r))
    entries[:, :r] = np.vstack([np.zeros((r, r)), np.eye(r)])
    pw = PartitionWeight.from_flat(lam, (-3.5, 0.7, -0.2, -0.3), 2 * r, r, strict=False)
    spec = IntegrandSpec(pw, CoordMatrix(lam, r, entries))
    us = np.stack([np.eye(r), np.diag([1.0, 0.0])]).astype(np.complex128)
    frames = np.concatenate([np.broadcast_to(np.eye(r), us.shape), us], axis=2)
    assert np.isfinite(chart_integrand_batch(spec, frames[:1])).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularBlock):
            chart_integrand_batch(spec, frames)


def test_chart_function_raises_at_one_root_node():
    # the root of block 2 is u = 0; one node of the array sits on it
    z = CoordMatrix((1, 1, 1), 1, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    pw = PartitionWeight((1, 1, 1), ((-0.3,), (-0.5,), (-1.2,)), 2, 1, strict=False)
    f = _lone_chart_function(z, pw)
    assert np.all(np.isfinite(f(np.array([0.3, 0.7, 2.0]))))
    with pytest.raises(OnBranchLocus):
        f(np.array([0.3, 0.0, 0.7]))


def test_chart_function_overflow_raises_before_warning():
    # block 1 is (2,) with m0 = 1 + u and ratio c1 = 1 / (1 + u), so alpha_1
    # c1 = 1000 at u = -0.999: exp would overflow there
    z = CoordMatrix((2, 1, 1), 1, np.array([[1.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 1.0]]))
    pw = PartitionWeight((2, 1, 1), ((-1.5, 1.0), (-0.2,), (-0.3,)), 2, 1, strict=False)
    f = _lone_chart_function(z, pw)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isfinite(f(np.array([0.5, 2.0]))).all()
        with pytest.raises(OnBranchLocus):
            f(np.array([0.5, -0.999, 2.0]))


def test_unpinned_kummer_takes_product_argument():
    # the (2,1,1) chart integrand sees alpha_2 and x only as alpha_2 x
    r = 2
    al = [0.0, 0.6, 0.45, 0.65]
    al[0] = -2 * r - al[2] - al[3]
    x = _herm(r, 0.5, 1.5, RandomStream(78))
    fam = family_of_normal_form((2, 1, 1), (x,), al, r)
    spec = _spec((2, 1, 1), r, al, (x,))
    assert np.allclose(fam.X, 0.6 * x, rtol=0, atol=1e-15)
    for k in range(4):
        u = _herm(r, 0.05, 0.95, RandomStream(79 + k))
        val = evaluate_integrand(spec, ChartPoint(u))
        assert abs(val - named_integrand(fam, u)) < 1e-12 * abs(val)


@pytest.mark.parametrize("lam", [(2, 1, 1), (2, 2), (3, 1), (4,)])
def test_chart_integrand_is_the_named_kernel_at_r3(lam):
    # criterion 13 at r = 3, where tr(m0^-1 m1) of a block of length 2 takes
    # the general inverse
    assert _c13_gap(lam, 3) < 1e-12


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("n", [5, 6])
def test_chart_integrand_is_the_lauricella_kernel(n, r):
    # an all-ones form of n >= 5 blocks is the matrix Lauricella F_D in its
    # n - 3 residual parameters, at complex weights too
    s = RandomStream(1500 + 10 * n + r)
    al = [0.0, 0.5 + 0.2j, 0.6 - 0.1j, -1.1 + 0.3j, 0.4, -0.7 - 0.2j][:n]
    al[0] = -2 * r - sum(al[1:])
    xs = tuple(_herm(r, -0.6, 0.6, s.jump(50 + k)) for k in range(n - 3))
    fam = family_of_normal_form((1,) * n, xs, al, r)
    assert fam.tag == "lauricella_fd"
    spec = _spec((1,) * n, r, al, xs)
    for k in range(20):
        u = _herm(r, 0.05, 0.95, s.jump(k + 1))
        val = evaluate_integrand(spec, ChartPoint(u))
        ref = named_integrand(fam, u)
        assert abs(val - ref) < 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("count", [0, 1, 3])
def test_all_ones_family_takes_one_residual_per_block_past_the_third(count):
    # zip would drop a variable of F_D silently
    with pytest.raises(ShapeMismatch, match="takes 2 residual parameters, got"):
        family_of_normal_form((1,) * 5, (0.3 * np.eye(1),) * count, [-2.6, 0.5, 0.6, -1.1, 0.6], 1)


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


def _log_sets():
    g = RandomStream(91).generator()
    n = 4000
    phase = np.exp(1j * g.uniform(-np.pi, np.pi, n))
    magnitudes = 10.0 ** g.uniform(-300, 300, n) * phase
    circle = (1.0 + 10.0 ** g.uniform(-16, -2, n) * g.choice([-1.0, 1.0], n)) * phase
    unit_interval = np.concatenate([g.random(n), 10.0 ** g.uniform(-300, 0, n)]) + 0j
    x = 10.0 ** g.uniform(-300, 300, n)
    y = np.concatenate([[0.0] * 4, 10.0 ** g.uniform(-320, 0, n - 4) * x[4:]])
    y *= np.where(np.arange(n) % 2, -1.0, 1.0)
    negative_axis = -x + 1j * y
    negative_axis.imag[:4] = [0.0, -0.0, 0.0, -0.0]
    return magnitudes, circle, unit_interval, negative_axis


def test_split_log_matches_numpy():
    # log|z| + i atan2(Im z, Re z) against np.log
    *plain, negative_axis = _log_sets()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in plain:
            ref = np.log(z)
            assert (np.abs(_log_batch(z) - ref) <= 4.5e-16 * np.maximum(1.0, np.abs(ref))).all()
    ref = np.log(negative_axis)
    with pytest.warns(BranchCutWarning):
        val = _log_batch(negative_axis)
    assert (np.abs(val - ref) <= 4.5e-16 * np.maximum(1.0, np.abs(ref))).all()
    # the side of the cut, signed zeros included, is numpy's
    assert np.array_equal(val.imag, ref.imag)
    assert list(np.sign(val.imag[:4])) == [1.0, -1.0, 1.0, -1.0]


def test_split_log_policy():
    with pytest.raises(SingularBlock):
        _log_batch(np.array([1.0 + 1.0j, 0.0 + 0.0j]))
    with pytest.raises(SingularBlock):
        _log_batch(np.array([-0.0 - 0.0j]))
    with pytest.warns(BranchCutWarning):
        _log_batch(np.array([1.0 + 0.0j, -2.0 - 0.0j]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _log_batch(np.array([1.0 + 0.0j, -2.0 + 1e-3j, 0.5 - 0.0j]))


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


def _det(m):
    return complex(np.linalg.det(m))


def _tr(m):
    return complex(np.trace(m))


# per tag: parameters, eigenvalue range of the argument (None: a complex
# matrix), whether the family takes X, the number of xs, and the kernel at
# one matrix from det, trace, @ and Python's principal complex power
_KERNEL_CASES = {
    "beta_r": ({"a": 2.3 + 0.4j, "b": 3.1}, (0.05, 0.95), False, 0,
               lambda p, u, e, x, xs: _det(u) ** (p["a"] - len(u))
               * _det(e - u) ** (p["b"] - len(u))),
    "gamma_r": ({"a": 2.7 + 0.3j}, (0.1, 3.0), False, 0,
                lambda p, u, e, x, xs: np.exp(-_tr(u)) * _det(u) ** (p["a"] - len(u))),
    "gaussian_r": ({}, (-2.0, 2.0), False, 0,
                   lambda p, u, e, x, xs: np.exp(-0.5 * _tr(u @ u))),
    "gauss": ({"a": 2.4, "b": 0.7 + 0.2j, "c": 5.1}, (0.05, 0.95), True, 0,
              lambda p, u, e, x, xs: _det(u) ** (p["a"] - len(u))
              * _det(e - u) ** (p["c"] - p["a"] - len(u)) * _det(e - u @ x) ** -p["b"]),
    "kummer": ({"a": 2.4, "c": 5.1 - 0.3j}, (0.05, 0.95), True, 0,
               lambda p, u, e, x, xs: np.exp(_tr(u @ x)) * _det(u) ** (p["a"] - len(u))
               * _det(e - u) ** (p["c"] - p["a"] - len(u))),
    "bessel": ({"c": 2.8 + 0.1j}, (0.3, 3.0), True, 0,
               lambda p, u, e, x, xs: np.exp(_tr(u @ x) - _tr(np.linalg.inv(u)))
               * _det(u) ** (p["c"] - len(u))),
    "hermite_weber": ({"c": -1.5 + 0.2j}, (0.2, 2.0), True, 0,
                      lambda p, u, e, x, xs: np.exp(_tr(u @ x) - 0.5 * _tr(u @ u))
                      * _det(u) ** (-p["c"] - len(u))),
    "airy": ({}, None, True, 0,
             lambda p, u, e, x, xs: np.exp(_tr(u @ x) - _tr(u @ u @ u) / 3.0)),
    "lauricella_fd": ({"a": 2.4, "bs": (0.7, 1.1 - 0.2j), "c": 5.3}, (0.05, 0.95), False, 2,
                      lambda p, u, e, x, xs: _det(u) ** (p["a"] - len(u))
                      * _det(e - u) ** (p["c"] - p["a"] - len(u))
                      * np.prod([_det(e - u @ xj) ** -bj for bj, xj in zip(p["bs"], xs)])),
}


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_family_kernel_matches_per_matrix_reference(tag, r):
    params, bounds, has_x, n_xs, reference = _KERNEL_CASES[tag]
    count = 24
    stream = RandomStream(300 + 10 * r + sorted(FAMILIES).index(tag))
    g = stream.generator()

    def small_matrix():
        # norm 0.5: 1 - u X stays near 1 for eigenvalues of u in (0, 1)
        m = g.standard_normal((r, r)) + 1j * g.standard_normal((r, r))
        return 0.5 * m / np.linalg.norm(m, 2)

    if bounds is None:
        u = 0.7 * (g.standard_normal((count, r, r)) + 1j * g.standard_normal((count, r, r)))
    else:
        lo, hi = bounds
        lam = lo + (hi - lo) * g.random((count, r))
        v = haar_unitary_batch(r, count, stream.jump(1))
        u = (v * lam[:, None, :]) @ v.conj().transpose(0, 2, 1)
    x = small_matrix() if has_x else None
    xs = tuple(small_matrix() for _ in range(n_xs))
    fam = NamedFamily(tag, params, X=x, xs=xs)
    batch = named_integrand_batch(fam, u)
    eye = np.eye(r)
    for k in range(count):
        ref = reference(params, u[k], eye, x, xs)
        assert abs(batch[k] - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_kernel_over_a_chain_weight_times_that_weight_is_the_kernel(tag, r):
    # over each chain of the family, hermite_weber's swap from the half line
    # to the full line among them, at Hermitian u inside the family's domain
    params, bounds, has_x, n_xs, _ = _KERNEL_CASES[tag]
    count = 20
    stream = RandomStream(700 + 10 * r + sorted(FAMILIES).index(tag))
    g = stream.generator()
    lo, hi = bounds or (-1.0, 1.0)
    lam = lo + (hi - lo) * g.random((count, r))
    v = haar_unitary_batch(r, count, stream.jump(1))
    u = (v * lam[:, None, :]) @ v.conj().transpose(0, 2, 1)

    def small_matrix():
        m = g.standard_normal((r, r)) + 1j * g.standard_normal((r, r))
        return 0.5 * m / np.linalg.norm(m, 2)

    x = small_matrix() if has_x else None
    fam = NamedFamily(tag, params, X=x, xs=tuple(small_matrix() for _ in range(n_xs)))
    e = FAMILIES[tag].exponents(params, x)
    kernel = named_integrand_batch(fam, u)
    for kind in FAMILIES[tag].chains:
        back = named_integrand_batch(fam, u, over=kind) * np.exp(_log_weight(kind, e, u, r))
        assert np.all(np.abs(back - kernel) <= 1e-13 * np.abs(kernel)), kind


@pytest.mark.parametrize("lam,tag", [
    ((1, 1, 1, 1), "gauss"),
    ((2, 1, 1), "kummer"),
    ((2, 2), "bessel"),
    ((3, 1), "hermite_weber"),
    ((4,), "airy"),
    ((1, 1, 1), "beta_r"),
    ((2, 1), "gamma_r"),
])
def test_family_tags(lam, tag):
    pins = {
        (1, 1, 1): [0.0, 0.5, 0.6],
        (2, 1): [0.0, -1.2 + 0.4j, 0.6],
        (1, 1, 1, 1): [0.0, 0.5, 0.6, -1.1],
        (2, 1, 1): [0.0, 1.0, 0.5, 0.6],
        (2, 2): [0.0, 1.0, 0.5, -1.0],
        (3, 1): [0.0, 0.0, 1.0, -2.5],
        (4,): [0.0, 0.0, 0.0, 1.0],
    }[lam]
    lead = {
        (1, 1, 1): [0, 1, 2],
        (2, 1): [0, 2],
        (1, 1, 1, 1): [0, 1, 2, 3],
        (2, 1, 1): [0, 2, 3],
        (2, 2): [0, 2],
        (3, 1): [0, 3],
        (4,): [0],
    }[lam]
    pins[lead[0]] = -2.0 - sum(pins[i] for i in lead[1:])
    fam = family_of_normal_form(lam, (np.eye(1) * 0.4,), pins, 1)
    assert fam.tag == tag
    # the partitions of three read no x
    assert family_of_normal_form(lam, (), pins, 1).params == fam.params
    if lam == (1, 1, 1):
        assert fam.params == {"a": 1.5, "b": 1.6}
    if lam == (2, 1):
        assert fam.params == {"a": 1.6, "rate": 1.2 - 0.4j}


def test_gamma_rate_scales_kernel_and_weight():
    # gamma_r's rate multiplies Tr u in the kernel and is the registry's
    # decay exponent; unset it is 1, bit for bit
    r, a, rate = 2, 2.7 + 0.3j, 1.3 - 0.4j
    u = _herm(r, 0.1, 3.0, RandomStream(81))[None]
    fam = NamedFamily("gamma_r", {"a": a, "rate": rate})
    ref = np.exp(-rate * np.trace(u[0])) * np.linalg.det(u[0]) ** (a - r)
    assert abs(named_integrand_batch(fam, u)[0] - ref) < 1e-13 * abs(ref)
    assert FAMILIES["gamma_r"].exponents(fam.params, None) == (a, rate)
    unit = NamedFamily("gamma_r", {"a": a, "rate": 1.0})
    default = NamedFamily("gamma_r", {"a": a})
    assert named_integrand_batch(unit, u)[0] == named_integrand_batch(default, u)[0]


def test_airy_family_records_reflection():
    fam = family_of_normal_form((4,), (np.eye(1) * 0.4,), [-2.0, 0.0, 0.0, 1.0], 1)
    assert fam.reflect_u
    assert np.allclose(fam.X, -0.4 * np.eye(1))


def test_unpinned_alpha_rejected():
    with pytest.raises(UnpinnedAlpha):
        family_of_normal_form((2, 2), (np.eye(1),), [-2.5, 1.0, 0.5, -0.5], 1)


def test_unsupported_partition():
    with pytest.raises(UnsupportedPartition):
        family_of_normal_form((5,), (np.eye(1),), [0, 0, 0, 1.0], 1)
