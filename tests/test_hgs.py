import numpy as np
import pytest

from radon_hgf.characters import LieDirection, PartitionWeight
from radon_hgf.errors import BadIndexSet, StencilCrossesBranchLocus
from radon_hgf.grassmann import CoordMatrix
from radon_hgf.hgs import (
    MultiIndexPair,
    StencilPlan,
    all_pairs,
    apply_DIJ,
    check_gl_infinitesimal,
    check_h_infinitesimal,
    verify_system,
)
from radon_hgf.integrate import Budget, ChainSpec, radon_hgf
from radon_hgf.normal_form import pattern
from radon_hgf.rng import RandomStream

GAUSS_ALPHA = (1.25 - 3.35, 0.55, 0.8, -1.25)


def _gauss_setup():
    pw = PartitionWeight((1, 1, 1, 1), tuple((v,) for v in GAUSS_ALPHA), 2, 1,
                         strict=False)
    base = pattern((1, 1, 1, 1), 1, (np.array([[-0.6]]),))
    gen = RandomStream(81).generator()
    z0 = CoordMatrix((1, 1, 1, 1), 1, base + 0.05 * gen.standard_normal(base.shape))
    chain = ChainSpec("interval-0-1", 1)

    def F(z):
        return radon_hgf(z, pw, chain, Budget(tol=5e-13)).value

    return pw, z0, F


def test_pair_validation():
    with pytest.raises(BadIndexSet):
        MultiIndexPair((2, 1), (1, 2))
    with pytest.raises(BadIndexSet):
        MultiIndexPair((0, 1), (1, 2))
    pair = MultiIndexPair((1, 2), (2, 4))
    assert pair.order == 2


def test_exhaustive_pair_enumeration():
    pairs = all_pairs(2, 4, 1)
    assert len(pairs) == 6
    assert {p.J for p in pairs} == {
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
    }


def test_linear_function_annihilated():
    # second derivatives of a linear function vanish to stencil accuracy
    z0 = CoordMatrix((1, 1, 1, 1), 1,
                     np.array([[1.0, 0.2, 1.1, 0.9], [0.1, 1.0, -0.9, 0.4]]))
    resid, scale = apply_DIJ(
        lambda z: z.entries[0, 0], z0, MultiIndexPair((1, 2), (1, 2)),
        StencilPlan(h=1e-3, richardson=False),
    )
    assert abs(resid) < 1e-9


def test_rank_argument_r2():
    # any composite g(t z) with a two-row frame t is annihilated by the
    # order-3 operators; the r = 2 bar is looser (third-order stencils)
    t = np.array([[0.3, -0.7, 1.1, 0.4], [0.9, 0.2, -0.5, 1.3]])

    def F(z):
        v = t @ z.entries
        return np.exp(0.3 * v.sum()) * (1 + v[0, 0] * v[1, 2])

    gen = RandomStream(83).generator()
    e = np.eye(4) @ np.hstack([np.eye(4), np.eye(4)]) + 0.15 * gen.standard_normal((4, 8))
    z0 = CoordMatrix((1, 1, 1, 1), 2, e)
    good = MultiIndexPair((1, 2, 3), (2, 5, 7))
    resid, scale = apply_DIJ(F, z0, good, StencilPlan(h=1e-3))
    assert abs(resid) / scale < 1e-2

    def bad(z):
        return z.entries[0, 0] * z.entries[1, 1] * z.entries[2, 2]

    resid, scale = apply_DIJ(bad, z0, MultiIndexPair((1, 2, 3), (1, 2, 3)),
                             StencilPlan(h=1e-3))
    assert abs(resid) / scale > 0.5


def test_negative_control_never_passes():
    z0 = CoordMatrix((1, 1, 1, 1), 1,
                     np.array([[1.0, 0.2, 1.1, 0.9], [0.1, 1.0, -0.9, 0.4]]))

    def bad(z):
        return z.entries[0, 0] * z.entries[1, 1]

    for h in (4e-3, 2e-3, 1e-3, 5e-4):
        resid, scale = apply_DIJ(bad, z0, MultiIndexPair((1, 2), (1, 2)),
                                 StencilPlan(h=h, richardson=False))
        assert abs(resid) / scale > 0.5


def test_integral_annihilated_all_pairs():
    _, z0, F = _gauss_setup()
    for pair in all_pairs(2, 4, 1):
        resid, scale = apply_DIJ(F, z0, pair, StencilPlan(h=1e-3))
        assert abs(resid) / scale < 1e-4


def test_stencil_second_order_convergence():
    _, z0, F = _gauss_setup()
    pair = all_pairs(2, 4, 1)[3]
    rels = []
    for h in (1.6e-2, 8e-3, 4e-3):
        resid, scale = apply_DIJ(F, z0, pair, StencilPlan(h=h, richardson=False))
        rels.append(abs(resid) / scale)
    assert 2.5 < rels[0] / rels[1] < 6.5
    assert 2.5 < rels[1] / rels[2] < 6.5


def test_verify_system_report():
    _, z0, F = _gauss_setup()
    report = verify_system(F, z0, all_pairs(2, 4, 1), StencilPlan(h=1e-3))
    assert report["pass"]
    assert len(report["pairs"]) == 6
    for row in report["pairs"]:
        assert row["relative"] < 1e-4


def test_stencil_crossing_branch_locus():
    pw = PartitionWeight((1, 1, 1), ((-1.3, ), (-0.4,), (-0.3,)), 2, 1, strict=False)
    # the second block's root sits at the origin: an entry step of 0.5
    # pushes the stencil across it
    z0 = CoordMatrix((1, 1, 1), 1, pattern((1, 1, 1), 1))
    chain = ChainSpec("interval-0-1", 1)

    def F(z):
        return radon_hgf(z, pw, chain, Budget(tol=1e-10)).value

    with pytest.raises(StencilCrossesBranchLocus):
        apply_DIJ(F, z0, MultiIndexPair((1, 2), (1, 2)), StencilPlan(h=1.2))


def test_h_infinitesimal_zero_direction():
    pw, z0, F = _gauss_setup()
    direction = LieDirection(tuple((np.zeros((1, 1)),) for _ in range(4)))
    res = check_h_infinitesimal(F, z0, direction, pw)
    assert abs(res.residual) < 1e-9


def test_gl_infinitesimal_zero_direction():
    _, z0, F = _gauss_setup()
    res = check_gl_infinitesimal(F, z0, np.zeros((2, 2)))
    assert abs(res.residual) < 1e-12


def test_h_infinitesimal_torus_direction():
    lam = (1, 1, 1)
    pw = PartitionWeight(lam, ((-2.9,), (0.4,), (0.5,)), 2, 1, strict=False)
    z0 = CoordMatrix(lam, 1, pattern(lam, 1))
    chain = ChainSpec("interval-0-1", 1)

    def F(z):
        return radon_hgf(z, pw, chain, Budget(tol=5e-13)).value

    direction = LieDirection((
        (np.array([[0.7]]),), (np.array([[-0.3]]),), (np.array([[0.2]]),)
    ))
    res = check_h_infinitesimal(F, z0, direction, pw, eps=1e-3)
    assert res.relative < 1e-5


def test_h_infinitesimal_jordan_direction():
    lam = (2, 1)
    pw = PartitionWeight(lam, ((-2.6, -1.0), (0.6,)), 2, 1, strict=False)
    z0 = CoordMatrix(lam, 1, pattern(lam, 1))
    chain = ChainSpec("half-line", 1)

    def F(z):
        return radon_hgf(z, pw, chain, Budget(tol=5e-13)).value

    direction = LieDirection((
        (np.zeros((1, 1)), np.array([[0.8]])), (np.zeros((1, 1)),)
    ))
    res = check_h_infinitesimal(F, z0, direction, pw, eps=1e-3)
    assert res.relative < 1e-5


def test_gl_infinitesimal_scaling_direction():
    # E = identity tests the Euler homogeneity of degree -r m
    _, z0, F = _gauss_setup()
    res = check_gl_infinitesimal(F, z0, np.eye(2), eps=1e-3)
    assert res.relative < 1e-6


def test_gl_infinitesimal_upper_direction():
    _, z0, F = _gauss_setup()
    gen = RandomStream(82).generator()
    e = np.array([[0.0, 0.6 * gen.standard_normal()], [0.0, 0.0]])
    res = check_gl_infinitesimal(F, z0, e, eps=1e-3)
    assert res.relative < 1e-5


@pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"), float("inf"), -float("inf")])
def test_bad_steps_refused(step):
    pw, z0, _ = _gauss_setup()

    def F(z):
        raise AssertionError("a refused step evaluates nothing")

    with pytest.raises(ValueError):
        StencilPlan(h=step)
    direction = LieDirection(tuple((np.zeros((1, 1)),) for _ in range(4)))
    with pytest.raises(ValueError):
        check_h_infinitesimal(F, z0, direction, pw, eps=step)
    with pytest.raises(ValueError):
        check_gl_infinitesimal(F, z0, np.zeros((2, 2)), eps=step)
