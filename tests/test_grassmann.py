import numpy as np
import pytest

from radon_hgf.errors import BadIndexSet, ShapeMismatch, SingularFrame
from radon_hgf import grassmann
from radon_hgf.grassmann import (
    MINOR_RTOL,
    RANK_RTOL,
    ChartPoint,
    CoordMatrix,
    apply_group,
    block_action,
    general_Z_member,
    member_mask,
    plucker,
    subdiagrams,
    tau_factor,
    z_lambda_member,
)
from radon_hgf.normal_form import pattern
from radon_hgf.rng import RandomStream


def test_plucker_identity_block():
    u = np.array([[0.3, -0.2], [0.1, 0.9]])
    t = np.concatenate([np.eye(2), u], axis=1)
    assert plucker(t, (1, 2)) == pytest.approx(1.0)


def test_plucker_scalar():
    t = np.array([[2.0, 5.0]])
    assert plucker(t, (2,)) == pytest.approx(5.0)


def test_plucker_three_term_relation():
    # p12 p34 - p13 p24 + p14 p23 = 0 for r=2, m=4
    gen = RandomStream(31).generator()
    t = gen.standard_normal((2, 4)) + 1j * gen.standard_normal((2, 4))

    def p(i, j):
        return plucker(t, (i, j))

    val = p(1, 2) * p(3, 4) - p(1, 3) * p(2, 4) + p(1, 4) * p(2, 3)
    assert abs(val) < 1e-12


def test_plucker_bad_index():
    t = np.eye(2)
    with pytest.raises(BadIndexSet):
        plucker(t, (2, 1))
    with pytest.raises(BadIndexSet):
        plucker(t, (0, 1))


def test_tau_factor_examples():
    assert tau_factor(np.eye(3), 5) == pytest.approx(1.0)
    assert tau_factor(np.array([[2.0]]), 4) == pytest.approx(16.0)


def test_tau_factor_scaling_law():
    # scalar a times the identity: factor a^{r m}
    assert tau_factor(2.0 * np.eye(2), 4) == pytest.approx(256.0)


def test_tau_factor_singular():
    with pytest.raises(SingularFrame):
        tau_factor(np.zeros((2, 2)), 3)


def test_tau_factor_full_group_covariance():
    gen = RandomStream(35).generator()
    t = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    g = gen.standard_normal((2, 2)) + 2 * np.eye(2)
    m = 4
    lhs = tau_factor(g @ t, m)
    rhs = np.linalg.det(g) ** m * tau_factor(t, m)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


@pytest.mark.parametrize(
    "lam,count",
    [
        ((1, 1, 1), 3),
        ((2, 1), 2),
        ((3,), 1),
        ((1, 1, 1, 1), 6),
        ((2, 1, 1), 4),
        ((2, 2), 3),
        ((3, 1), 2),
        ((4,), 1),
    ],
)
def test_subdiagram_count(lam, count):
    mus = subdiagrams(lam)
    assert len(mus) == count
    ell = len(lam)
    # explicit enumeration: choose-two plus parts of depth two
    expected = ell * (ell - 1) // 2 + sum(1 for n in lam if n >= 2)
    assert len(mus) == expected
    for mu in mus:
        assert sum(mu.mu) == 2


def test_membership_normal_form():
    z = CoordMatrix((1, 1, 1), 2, pattern((1, 1, 1), 2))
    assert z_lambda_member(z).member


def test_membership_repeated_block_fails():
    # third column equals the first: the (1,0,1) minor vanishes
    e = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    z = CoordMatrix((1, 1, 1), 1, e)
    res = z_lambda_member(z)
    assert not res.member
    assert any(mu.mu == (1, 0, 1) for mu in res.failing)


def test_membership_matches_direct_minors():
    gen = RandomStream(32).generator()
    lam = (2, 1, 1)
    for _ in range(20):
        e = gen.standard_normal((2, 4))
        z = CoordMatrix(lam, 1, e)
        direct = True
        cols = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (2, 0): 3}
        for mu_cols in [((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 0), (2, 0)),
                        ((1, 0), (2, 0))]:
            m = e[:, [cols[mu_cols[0]], cols[mu_cols[1]]]]
            if abs(np.linalg.det(m)) <= 1e-10 * max(
                np.prod(np.linalg.norm(m, axis=0)), 1e-300
            ):
                direct = False
        assert z_lambda_member(z).member == direct


def test_membership_invariant_under_group_action():
    gen = RandomStream(33).generator()
    z = CoordMatrix((2, 1), 2, pattern((2, 1), 2))
    g = np.eye(4) + 0.05 * gen.standard_normal((4, 4))
    from radon_hgf.characters import GroupElement
    from radon_hgf.jordan import TruncPoly

    h = GroupElement((
        TruncPoly.from_list([np.eye(2) * 1.1, 0.05 * gen.standard_normal((2, 2))]),
        TruncPoly.from_list([np.eye(2) * 0.9]),
    ))
    z2 = apply_group(z, g=g, h=h)
    assert z_lambda_member(z2).member


def test_apply_group_is_left_then_right_move():
    # g z h is g z followed by the Toeplitz rule on each block, bit for bit
    from radon_hgf.characters import GroupElement
    from radon_hgf.jordan import TruncPoly

    gen = RandomStream(34).generator()
    lam, r = (3, 1), 2
    z = CoordMatrix(lam, r, gen.standard_normal((4, 8)) + 1j * gen.standard_normal((4, 8)))
    g = np.eye(4) + 0.3 * gen.standard_normal((4, 4))
    blocks = [[np.eye(r) + 0.3 * gen.standard_normal((r, r)) for _ in range(nk)] for nk in lam]
    h = GroupElement(tuple(TruncPoly.from_list(b) for b in blocks))
    both = apply_group(z, g=g, h=h).entries
    assert np.array_equal(both, apply_group(apply_group(z, g=g), h=h).entries)
    gz = g @ z.entries
    h0, h1, h2 = h.blocks[0].coeffs
    z0, z1, z2 = (gz[:, q * r : (q + 1) * r] for q in range(3))
    want = np.concatenate([z0 @ h0, z0 @ h1 + z1 @ h0, z0 @ h2 + z1 @ h1 + z2 @ h0], axis=1)
    assert np.array_equal(block_action(gz[:, :6], h.blocks[0].coeffs, r), want)
    assert np.array_equal(both[:, :6], want)
    assert np.array_equal(both[:, 6:], gz[:, 6:] @ h.blocks[1].coeffs[0])


def test_general_member():
    z = CoordMatrix((1, 1, 1), 2, pattern((1, 1, 1), 2))
    assert general_Z_member(z)
    e = z.entries.copy()
    e[:, 2:4] = 0.0
    e[0, 2] = 1e-14
    z2 = CoordMatrix((1, 1, 1), 2, e)
    assert not general_Z_member(z2)


def test_general_member_agrees_with_svd_rank():
    gen = RandomStream(34).generator()
    for _ in range(10):
        e = gen.standard_normal((4, 6))
        z = CoordMatrix((1, 1, 1), 2, e)
        ranks = [
            np.linalg.matrix_rank(z.block(j, 0), tol=1e-10 * np.linalg.norm(z.block(j, 0), 2))
            for j in range(3)
        ]
        assert general_Z_member(z) == all(rk == 2 for rk in ranks)


def _member_per_minor(z, rtol):
    """The membership test one minor at a time: the LAPACK determinant of
    each weight-2 minor against its Hadamard bound, in subdiagram order."""
    failing = []
    for mu in subdiagrams(z.lam):
        (i, qi), (j, qj) = mu.columns()
        zmu = np.concatenate([z.block(i, qi), z.block(j, qj)], axis=1)
        bound = float(np.prod(np.linalg.norm(zmu, axis=0)))
        if bound == 0.0 or abs(np.linalg.det(zmu)) <= rtol * bound:
            failing.append(mu)
    return not failing, tuple(failing)


def _partitions(n, top=None):
    if n == 0:
        yield ()
        return
    for k in range(min(n, n if top is None else top), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _near_singular(entries, lam, r, mu, eps, v):
    """Entries whose minor mu has its second block's first column eps v away
    from the first block's: the minor's determinant is linear in eps."""
    e = entries.copy()
    starts = np.cumsum((0,) + lam[:-1]) * r
    (i, qi), (j, qj) = mu.columns()
    e[:, starts[j] + qj * r] = e[:, starts[i] + qi * r] + eps * v
    return e


@pytest.mark.parametrize("r", [1, 2, 3])
def test_stacked_membership_matches_per_minor_loop(r):
    gen = RandomStream(40 + r).generator()
    near = 0
    # every partition of n <= 5; at n = 1 there is no minor (and no 2r x r
    # coordinate matrix)
    for n in range(2, 6):
        for lam in _partitions(n):
            entries = gen.standard_normal((2 * r, n * r)) + 1j * gen.standard_normal((2 * r, n * r))
            points = [(entries, MINOR_RTOL, None)]
            for mu in subdiagrams(lam):
                v = gen.standard_normal(2 * r) + 1j * gen.standard_normal(2 * r)
                for rtol in (MINOR_RTOL, 1e-6):
                    # scale eps so that the minor's ratio to its bound is
                    # 0.999 rtol (fails) or 1.001 rtol (passes)
                    probe = CoordMatrix(lam, r, _near_singular(entries, lam, r, mu, 1e-8, v))
                    zmu = np.concatenate([probe.block(*mu.columns()[0]),
                                          probe.block(*mu.columns()[1])], axis=1)
                    ratio = abs(np.linalg.det(zmu)) / np.prod(np.linalg.norm(zmu, axis=0))
                    for factor in (0.999, 1.001):
                        e = _near_singular(entries, lam, r, mu, 1e-8 * factor * rtol / ratio, v)
                        points.append((e, rtol, (mu, factor < 1.0)))
            for e, rtol, target in points:
                try:
                    z = CoordMatrix(lam, r, e)
                except ShapeMismatch:
                    # the minor is the whole matrix, and it is rank deficient
                    continue
                ref = _member_per_minor(z, rtol)
                res = z_lambda_member(z, rtol=rtol)
                assert (res.member, res.failing) == ref
                if target is not None:
                    mu, fails = target
                    assert (mu in ref[1]) == fails
                    near += 1
    # 56 subdiagrams, four points each; at n = 2 the minor is the whole
    # matrix, which is rank deficient at rtol 1e-10
    assert near == 56 * 4 - 4


def test_membership_requires_m_equals_2r():
    z = CoordMatrix((1, 1, 1), 1, np.array([[1.0, 0.0, 1.0]]))
    with pytest.raises(ShapeMismatch):
        z_lambda_member(z)


def test_chart_point_ubar():
    u = np.array([[0.5, 0.2], [0.0, 1.0]])
    cp = ChartPoint(u)
    assert cp.ubar.shape == (2, 4)
    assert np.allclose(cp.ubar[:, :2], np.eye(2))


def test_coord_matrix_block_layout():
    z = CoordMatrix((2, 1), 2, pattern((2, 1), 2))
    assert z.block(0, 1).shape == (4, 2)
    assert np.allclose(z.block(1, 0)[2:], np.eye(2))


def test_coord_matrix_rejects_rank_deficient():
    e = np.zeros((2, 3))
    e[0] = [1.0, 2.0, 3.0]
    with pytest.raises(ShapeMismatch):
        CoordMatrix((1, 1, 1), 1, e)


def _outcome(build):
    """The type and text of what build() raises, or None."""
    try:
        build()
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
        return type(exc), str(exc)
    return None


def test_stack_raises_what_its_first_failing_matrix_raises_alone():
    lam = (1, 1, 1)
    good = pattern(lam, 1).astype(complex)
    flat = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]], dtype=complex)
    bad = good.copy()
    bad[1, 2] = np.nan
    for stack in ([good, flat, bad], [good, bad, flat], [bad, good], [flat], [good, good]):
        expected = next(
            (out for out in (_outcome(lambda e=e: CoordMatrix(lam, 1, e)) for e in stack) if out),
            None)
        assert _outcome(lambda: CoordMatrix.stack(lam, 1, np.stack(stack))) == expected
    assert _outcome(lambda: CoordMatrix.stack(lam, 1, np.stack([bad, flat]))) == (
        ValueError, "non-finite matrix entries")
    # a wrong column count fails every matrix, after a non-finite first one
    wide = np.ones((2, 2, 4), dtype=complex)
    assert _outcome(lambda: CoordMatrix.stack(lam, 1, wide))[0] is ShapeMismatch
    wide[0, 0, 0] = np.inf
    assert _outcome(lambda: CoordMatrix.stack(lam, 1, wide))[0] is ValueError
    with pytest.raises(ShapeMismatch, match="expected a 3-d array"):
        CoordMatrix.stack(lam, 1, good)


def _two_row(gen, count, N, ratio):
    """count 2 x N matrices U diag(s_max, ratio s_max) V^* with Haar U and
    orthonormal V, s_max spread over 300 decades."""
    def frames(rows, cols):
        g = gen.standard_normal((count, rows, cols)) + 1j * gen.standard_normal((count, rows, cols))
        return np.linalg.qr(g)[0]

    s_max = 10.0 ** gen.uniform(-150.0, 150.0, count)
    s = np.stack([s_max, ratio * s_max], axis=1)
    return frames(2, 2) @ (s[:, :, None] * frames(N, 2).conj().swapaxes(1, 2))


@pytest.mark.parametrize("K", [1, 96])
@pytest.mark.parametrize("N", range(3, 9))
def test_two_row_rank_decision_is_the_svd_decision(K, N):
    # the closed form at m = 2 (Cauchy-Binet and the Frobenius norm)
    # accepts or rejects each matrix as the SVD does, for s_min / s_max
    # from 1e-4 to 1e-13, none within 10% of RANK_RTOL; a stack raises for
    # its first failing matrix what that matrix raises alone
    gen = np.random.default_rng(200 + 10 * N + K)
    lam = (1,) * N
    ratios = [x for x in np.logspace(-4.0, -13.0, 37) if abs(x / RANK_RTOL - 1.0) > 0.1]
    for ratio in ratios:
        e = _two_row(gen, K, N, ratio)
        s = np.linalg.svd(e, compute_uv=False)
        expected = s[:, -1] <= RANK_RTOL * s[:, 0]
        assert grassmann._rank_deficient(e) == expected.tolist()
        assert expected.all() == (ratio < RANK_RTOL) and expected.any() == (ratio < RANK_RTOL)
        alone = [_outcome(lambda e=m: CoordMatrix(lam, 1, e)) for m in e]
        assert alone == [(ShapeMismatch, "coordinate matrix is rank deficient") if x else None
                         for x in expected]
        assert _outcome(lambda: CoordMatrix.stack(lam, 1, e)) == next(
            (out for out in alone if out), None)
    # a deficient and a non-finite matrix after good ones: the first raises
    good, deficient = _two_row(gen, 1, N, 1e-3)[0], _two_row(gen, 1, N, 1e-12)[0]
    nonfinite = good.copy()
    nonfinite[1, -1] = np.nan
    goods = [good] * max(K - 2, 0)
    for stack in (goods + [deficient, nonfinite], goods + [nonfinite, deficient],
                  [good, deficient] * max(K // 2, 1), [nonfinite]):
        expected = next(out for out in (_outcome(lambda e=e: CoordMatrix(lam, 1, e))
                                        for e in stack) if out)
        assert _outcome(lambda: CoordMatrix.stack(lam, 1, np.stack(stack))) == expected


def test_stack_holds_the_matrices_built_alone():
    lam = (2, 2)
    e = np.stack([pattern(lam, 1, (np.array([[x]]),)) for x in (0.3, -0.7)]).astype(complex)
    zs = CoordMatrix.stack([2, 2], 1, e)
    for z, entries in zip(zs, e):
        alone = CoordMatrix(lam, 1, entries)
        assert (z.lam, z.r, z.entries.tobytes()) == (alone.lam, alone.r, alone.entries.tobytes())
    assert CoordMatrix.stack(lam, 1, e[:0]) == []


@pytest.mark.parametrize("r", [1, 2])
def test_member_mask_is_z_lambda_member_per_matrix(r):
    gen = RandomStream(60 + r).generator()
    for lam in ((1, 1, 1), (2, 1), (1, 1, 1, 1), (2, 2)):
        n = sum(lam)
        e = gen.standard_normal((8, 2 * r, n * r)) + 1j * gen.standard_normal((8, 2 * r, n * r))
        subs = subdiagrams(lam)
        # every other matrix has one minor with two equal columns
        for k in range(0, 8, 2):
            mu = subs[k // 2 % len(subs)]
            e[k] = _near_singular(e[k], lam, r, mu, 0.0, np.zeros(2 * r))
        expected = [z_lambda_member(z).member for z in CoordMatrix.stack(lam, r, e)]
        assert member_mask(lam, r, e).tolist() == expected
        assert expected == [False, True] * 4
