import ctypes
import errno
import math
from itertools import permutations

import numpy as np
import pytest
import scipy.linalg

from radon_hgf.characters import GroupElement, LieDirection, PartitionWeight
from radon_hgf.errors import BadIndexSet, NotInZLambda, ShapeMismatch, StencilCrossesBranchLocus
from radon_hgf.grassmann import CoordMatrix, apply_group, require_member, z_lambda_member
from radon_hgf.hgs import (
    InfinitesimalResult,
    MultiIndexPair,
    StencilPlan,
    all_pairs,
    apply_DIJ,
    check_gl_infinitesimal,
    check_h_infinitesimal,
    verify_system,
)
from radon_hgf.integrate import Budget, ChainSpec, radon_hgf
from radon_hgf.jordan import TruncPoly, ring_exp
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

    z0 = _r2_point()
    good = MultiIndexPair((1, 2, 3), (2, 5, 7))
    resid, scale = apply_DIJ(F, z0, good, StencilPlan(h=1e-3))
    assert abs(resid) / scale < 1e-2

    def bad(z):
        return z.entries[0, 0] * z.entries[1, 1] * z.entries[2, 2]

    resid, scale = apply_DIJ(bad, z0, MultiIndexPair((1, 2, 3), (1, 2, 3)),
                             StencilPlan(h=1e-3))
    assert abs(resid) / scale > 0.5


def _r2_point():
    """The r = 2 point [I I] + 0.15 N of test_rank_argument_r2."""
    gen = RandomStream(83).generator()
    e = np.hstack([np.eye(4), np.eye(4)]) + 0.15 * gen.standard_normal((4, 8))
    return CoordMatrix((1, 1, 1, 1), 2, e)


@pytest.mark.parametrize("richardson", [True, False])
@pytest.mark.parametrize("r", [1, 2])
def test_operator_values_on_polynomials(r, richardson):
    # the order-k operator of (I, J) applied to the (I, J) minor is k!
    # (Cayley's identity); to the product of z_IJ along its diagonal 1,
    # the identity's term alone, and along its anti-diagonal -1, the sign
    # of the reversal at k = 2 and 3. This pins the signs and denominators
    if r == 1:
        z0 = CoordMatrix((1, 1, 1, 1), 1,
                         np.array([[1.0, 0.2, 1.1, 0.9], [0.1, 1.0, -0.9, 0.4]]))
        pair, bound = MultiIndexPair((1, 2), (2, 4)), 1e-8
    else:
        z0, pair, bound = _r2_point(), MultiIndexPair((1, 2, 3), (2, 5, 7)), 1e-5
    I, J = np.array(pair.I) - 1, np.array(pair.J) - 1
    plan = StencilPlan(h=1e-3, richardson=richardson)
    for F, exact in ((lambda z: np.linalg.det(z.entries[np.ix_(I, J)]), math.factorial(r + 1)),
                     (lambda z: np.prod(z.entries[I, J]), 1.0),
                     (lambda z: np.prod(z.entries[I, J[::-1]]), -1.0)):
        resid, _ = apply_DIJ(F, z0, pair, plan)
        assert abs(resid - exact) <= bound


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


def test_pair_outside_the_matrix_is_refused_before_any_call():
    # rows past m or columns past N used to raise numpy's bare IndexError
    _, z0, _ = _gauss_setup()

    def F(z):
        raise AssertionError("a refused pair evaluates nothing")

    for pair in (MultiIndexPair((1, 3), (1, 2)), MultiIndexPair((1, 2), (4, 5))):
        with pytest.raises(BadIndexSet, match="exceeds the 2 x 4 coordinate matrix"):
            apply_DIJ(F, z0, pair)
        with pytest.raises(BadIndexSet):
            verify_system(F, z0, [all_pairs(2, 4, 1)[0], pair])


def test_pairs_of_two_orders_are_refused_before_any_call():
    # the stencils of a check are one array over pairs of one order; pairs
    # of orders 2 and 3 used to raise numpy's bare ValueError
    gen = RandomStream(7).generator()
    z0 = CoordMatrix((1, 1, 1), 2, gen.standard_normal((4, 6)) + 1j * gen.standard_normal((4, 6)))

    def F(z):
        raise AssertionError("a refused check evaluates nothing")

    with pytest.raises(BadIndexSet, match="must share an order"):
        verify_system(F, z0, [all_pairs(4, 6, 1)[0], all_pairs(4, 6, 2)[0]])


def test_verify_system_of_no_pairs_is_refused_before_any_call():
    # it used to report a vacuous pass over no pairs
    _, z0, _ = _gauss_setup()

    def F(z):
        raise AssertionError("a refused check evaluates nothing")

    with pytest.raises(BadIndexSet, match="at least one pair"):
        verify_system(F, z0, [])


def _errno_cell():
    """The C library's errno as a settable cell."""
    loc = getattr(ctypes.CDLL(None), "__errno_location", None)
    if loc is None:
        pytest.skip("needs the C library's errno location")
    loc.argtypes = []
    loc.restype = ctypes.POINTER(ctypes.c_int)
    return loc().contents


def test_nan_values_fail_their_rows_and_raise_nothing():
    # abs() of a complex NaN leaves errno alone, so a stale ERANGE from an
    # earlier C call read as an overflow; the modulus of a NaN is NaN
    _, z0, _ = _gauss_setup()
    cell = _errno_cell()

    def F(z):
        cell.value = errno.ERANGE
        return complex(math.nan, math.nan)

    report = verify_system(F, z0, all_pairs(2, 4, 1))
    assert not report["pass"]
    assert all(math.isnan(row["relative"]) and not row["pass"] for row in report["pairs"])
    res = InfinitesimalResult(complex(math.nan, 0.0), 1.0)
    cell.value = errno.ERANGE
    assert math.isnan(res.relative)
    res = check_gl_infinitesimal(F, z0, np.diag([0.3, -0.2]), eps=1e-3)
    cell.value = errno.ERANGE
    assert math.isnan(res.relative) and math.isnan(res.reference)


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan, math.inf])
def test_meaningless_rel_tol_is_refused(rel_tol):
    # 0, -1 and nan used to report every pair as failed
    _, z0, _ = _gauss_setup()

    def F(z):
        raise AssertionError("a refused tolerance evaluates nothing")

    with pytest.raises(ValueError, match=f"rel_tol must be positive and finite, got {rel_tol}"):
        verify_system(F, z0, all_pairs(2, 4, 1), rel_tol=rel_tol)


def _stencil_entries(z0, pair, plan):
    """The entries at which apply_DIJ evaluates F, in stencil order: per
    step, per permutation of the rows, per corner of the signs."""
    rows, cols = [i - 1 for i in pair.I], [j - 1 for j in pair.J]
    out = []
    for h in (plan.h, plan.h / 2.0) if plan.richardson else (plan.h,):
        for perm in permutations(range(pair.order)):
            for corner in range(1 << pair.order):
                e = z0.entries.copy()
                for q in range(pair.order):
                    i, j = rows[perm[q]], cols[q]
                    step = h * (1.0 + abs(z0.entries[i, j]))
                    e[i, j] += step if corner >> q & 1 else -step
                out.append(e)
    return out


def _recording():
    seen = []

    def F(z):
        seen.append(z.entries)
        return complex(np.sum(z.entries))

    return seen, F


def _same_points(seen, expected):
    assert len(seen) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(seen, expected))
    assert len({e.tobytes() for e in seen}) == len(seen)


def test_F_runs_once_per_stencil_point_in_order():
    _, z0, _ = _gauss_setup()
    plan = StencilPlan(h=1e-3)
    pairs = all_pairs(2, 4, 1)
    seen, F = _recording()
    apply_DIJ(F, z0, pairs[2], plan)
    _same_points(seen, _stencil_entries(z0, pairs[2], plan))
    seen, F = _recording()
    verify_system(F, z0, pairs, plan)
    _same_points(seen, [e for pair in pairs for e in _stencil_entries(z0, pair, plan)])
    # a pair given twice shares its points, which F sees once
    seen, F = _recording()
    report = verify_system(F, z0, [pairs[2], pairs[2]], plan)
    _same_points(seen, _stencil_entries(z0, pairs[2], plan))
    assert report["pairs"][0] == report["pairs"][1]


def test_report_counts_the_distinct_points():
    _, z0, _ = _gauss_setup()
    pairs = all_pairs(2, 4, 1)
    _, F = _recording()
    assert verify_system(F, z0, pairs)["points"] == 96
    assert verify_system(F, z0, [pairs[2], pairs[2]])["points"] == 16
    assert verify_system(F, z0, pairs[:1], StencilPlan(richardson=False))["points"] == 8


def test_stencil_outside_z_lambda_raises_the_first_points_message():
    # at h = 1 corners of both pairs leave Z_lambda, on different minors;
    # the error is what require_member raises alone at the first such
    # point in stencil order, and F runs at every point up to it
    lam = (1, 1, 1)
    pw = PartitionWeight(lam, ((-2.9,), (0.4,), (0.5,)), 2, 1, strict=False)
    z0 = CoordMatrix(lam, 1, pattern(lam, 1))
    chain = ChainSpec("interval-0-1", 1)
    plan = StencilPlan(h=1.0)
    a, b = MultiIndexPair((1, 2), (1, 3)), MultiIndexPair((1, 2), (2, 3))
    messages = set()
    for pairs in ([a, b], [b, a]):
        points = [e for pair in pairs for e in _stencil_entries(z0, pair, plan)]
        first = next(i for i, e in enumerate(points)
                     if not z_lambda_member(CoordMatrix(lam, 1, e)).member)
        with pytest.raises(NotInZLambda) as alone:
            require_member(CoordMatrix(lam, 1, points[first]))
        seen = []

        def F(z):
            seen.append(z.entries)
            return radon_hgf(z, pw, chain, Budget(tol=1e-8)).value

        with pytest.raises(StencilCrossesBranchLocus) as stacked:
            verify_system(F, z0, pairs, plan)
        assert str(stacked.value) == str(alone.value)
        assert isinstance(stacked.value.__cause__, NotInZLambda)
        _same_points(seen, points[: first + 1])
        messages.add(str(alone.value))
    assert len(messages) == 2


@pytest.mark.parametrize("h, message", [
    (1e308, "non-finite matrix entries"),
    (1.0, "coordinate matrix is rank deficient"),
])
def test_bad_corner_raises_as_alone_before_any_call(h, message):
    # a step of 1e308 (1 + |z|) overflows; at h = 1 a corner of the
    # reversed pairs is rank deficient: either raises what building the
    # first such corner alone raises, before F is called
    z0 = CoordMatrix((1, 1, 1), 1, pattern((1, 1, 1), 1))
    pairs = all_pairs(2, 3, 1)[::-1]
    plan = StencilPlan(h=h)

    def F(z):
        raise AssertionError("a bad corner evaluates nothing")

    expected = None
    with np.errstate(over="ignore"):
        for e in (e for pair in pairs for e in _stencil_entries(z0, pair, plan)):
            try:
                CoordMatrix(z0.lam, 1, e)
            except (ValueError, ShapeMismatch) as exc:
                expected = exc
                break
        assert str(expected) == message
        with pytest.raises(type(expected)) as raised:
            verify_system(F, z0, pairs, plan)
    assert str(raised.value) == message


def test_infinitesimal_checks_run_F_once_per_point_in_order():
    lam = (1, 1, 1)
    pw = PartitionWeight(lam, ((-2.9,), (0.4,), (0.5,)), 2, 1, strict=False)
    z0 = CoordMatrix(lam, 1, pattern(lam, 1))
    direction = LieDirection(((np.array([[0.7]]),), (np.array([[-0.3]]),), (np.array([[0.2]]),)))
    eps = 1e-3
    steps = (eps / 2.0, -(eps / 2.0), eps, -eps)

    def element(t):
        return GroupElement(tuple(
            ring_exp(TruncPoly.from_list([t * np.asarray(c, dtype=np.complex128) for c in eb]))
            for eb in direction.blocks))

    seen, F = _recording()
    check_h_infinitesimal(F, z0, direction, pw, eps=eps)
    _same_points(seen, [z0.entries] + [apply_group(z0, h=element(t)).entries for t in steps])
    E = np.array([[0.2, -0.5], [0.3, 0.1]], dtype=np.complex128)
    seen, F = _recording()
    check_gl_infinitesimal(F, z0, E, eps=eps)
    _same_points(seen, [z0.entries]
                 + [apply_group(z0, g=scipy.linalg.expm(t * E)).entries for t in steps])


# residual and scale of each pair of all_pairs(2, 4, 1) at the _gauss_setup
# point for an F that moves z by a fixed frame before radon_hgf, as the
# stencils read them before the registered points were stacked; its points
# are not registered, so each runs alone
_MOVED_RESIDUALS = [
    (-6.34936547783127e-13, 0.26219079487366853),
    (3.127276215764141e-12, 0.5627028875974438),
    (8.071765478234738e-12, 0.15991154668507357),
    (-1.0837442054878466e-11, 0.2543377802364035),
    (-2.186245628976735e-11, 0.12115907520346574),
    (1.730615650785694e-11, 0.22315798773385653),
]


def test_moved_F_and_negative_control_read_as_before():
    pw, z0, _ = _gauss_setup()
    chain = ChainSpec("interval-0-1", 1)
    g = np.array([[1.0, 0.1], [0.05, 1.0]])

    def F(z):
        return radon_hgf(apply_group(z, g=g), pw, chain, Budget(tol=5e-13)).value

    report = verify_system(F, z0, all_pairs(2, 4, 1))
    assert report["pass"]
    for row, (before, before_scale) in zip(report["pairs"], _MOVED_RESIDUALS):
        # the values move at rounding level, which the stencil amplifies
        assert abs(row["scale"] - before_scale) <= 1e-9 * before_scale
        assert abs(complex(*row["residual"]) - before) <= 3e-9 * before_scale
    # criterion 11's negative control
    for h, before in ((4e-3, 1.000000000000288), (2e-3, 0.9999999999977681),
                      (1e-3, 0.9999999999977681)):
        resid, scale = apply_DIJ(lambda z: z.entries[0, 0] * z.entries[1, 1], z0,
                                 all_pairs(2, 4, 1)[0], StencilPlan(h=h, richardson=False))
        assert resid == before and scale == before
