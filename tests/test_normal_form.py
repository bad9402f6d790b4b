import numpy as np
import pytest

from radon_hgf.characters import GroupElement
from radon_hgf.errors import NotInZLambda, ShapeMismatch
from radon_hgf.grassmann import CoordMatrix, apply_group, z_lambda_member
from radon_hgf.jordan import TruncPoly
from radon_hgf.normal_form import (
    pattern,
    reduce3,
    reduce4,
    reduce_ones,
    residual_parameters,
)
from radon_hgf.rng import RandomStream


def _random_pair(lam, r, gen):
    while True:
        g = gen.standard_normal((2 * r, 2 * r)) + 1.5 * np.eye(2 * r)
        if np.linalg.cond(g) < 50:
            break
    blocks = []
    for nk in lam:
        h0 = gen.standard_normal((r, r)) + 2.0 * np.eye(r)
        blocks.append(
            TruncPoly.from_list([h0] + [0.5 * gen.standard_normal((r, r))
                                        for _ in range(nk - 1)])
        )
    return g, GroupElement(tuple(blocks))


# the r = 1 table with residual parameters 7 (and 9 for the second)
_R1_TABLE = {
    ((1, 1, 1), 1): [[1, 0, 1], [0, 1, -1]],
    ((2, 1), 1): [[1, 0, 0], [0, 1, 1]],
    ((3,), 1): [[1, 0, 0], [0, 1, 0]],
    ((1, 1, 1, 1), 1): [[1, 0, 1, 1], [0, 1, -1, -7]],
    ((2, 1, 1), 1): [[1, 0, 0, 1], [0, 7, 1, -1]],
    ((2, 1, 1), 2): [[1, 0, 0, 1], [0, 1, 1, -7]],
    ((2, 1, 1), 3): [[1, 0, 0, 7], [0, 1, 1, -1]],
    ((2, 2), 1): [[1, 0, 0, 1], [0, 7, 1, 0]],
    ((2, 2), 2): [[1, 0, 0, 7], [0, 1, 1, 0]],
    ((3, 1), 1): [[1, 0, 0, 0], [0, 1, 7, 1]],
    ((3, 1), 2): [[1, 7, 0, 0], [0, -1, 0, 1]],
    ((3, 1), 3): [[1, 0, 0, 7], [0, 1, 0, -1]],
    ((4,), 1): [[1, 0, 0, 0], [0, 1, 0, 7]],
    ((1, 1, 1, 1, 1), 1): [[1, 0, 1, 1, 1], [0, 1, -1, -7, -9]],
}


def _n_params(lam):
    return len(lam) - 3 if all(nk == 1 for nk in lam) else int(sum(lam) == 4)


@pytest.mark.parametrize("lam,variant", sorted(_R1_TABLE))
def test_pattern_table(lam, variant):
    literal = np.array(_R1_TABLE[lam, variant], dtype=float)
    k = _n_params(lam)
    assert np.array_equal(pattern(lam, 1, (7 * np.eye(1), 9 * np.eye(1))[:k], variant), literal)
    # at r = 2 every entry becomes a block: 0 and +-1 times I, +-7 and +-9
    # the residual matrices
    gen = RandomStream(60).generator()
    xs = tuple(gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)) for _ in range(k))
    subs = dict(zip((7, 9), xs))
    want = np.block([
        [subs[abs(v)] * np.sign(v) if abs(v) in subs else v * np.eye(2) for v in row]
        for row in literal.astype(int)
    ])
    assert np.array_equal(pattern(lam, 2, xs, variant), want)


def test_table_rejects_parameter_count_and_variant():
    x = 0.5 * np.eye(1)
    with pytest.raises(ShapeMismatch):
        pattern((2, 2), 1)
    with pytest.raises(ShapeMismatch):
        pattern((1, 1, 1), 1, (x,))
    for lam, variant in (((2, 2), 3), ((1, 1, 1, 1), 2), ((4,), 2), ((3, 1), 4)):
        with pytest.raises(ShapeMismatch):
            pattern(lam, 1, (x,), variant)
        with pytest.raises(ShapeMismatch):
            reduce4(CoordMatrix(lam, 1, pattern(lam, 1, (x,))), variant)


@pytest.mark.parametrize("lam", [(1, 1, 1), (2, 1), (3,), (1, 1, 1, 1), (2, 1, 1), (2, 2),
                                 (3, 1), (4,), (1, 1, 1, 1, 1)])
@pytest.mark.parametrize("r", [1, 2])
def test_residual_parameters_read_back(lam, r):
    gen = RandomStream(61 + r).generator()
    xs = tuple(gen.standard_normal((r, r)) for _ in range(_n_params(lam)))
    z = CoordMatrix(lam, r, pattern(lam, r, xs))
    got = residual_parameters(z)
    assert len(got) == len(xs)
    assert all(np.array_equal(a, b) for a, b in zip(got, xs))
    off = z.entries.copy()
    off[0, 1] += 1e-9  # a fixed 0 of every layout
    assert residual_parameters(CoordMatrix(lam, r, off)) is None


def test_residual_parameters_other_forms():
    x = np.array([[0.7]])
    assert residual_parameters(CoordMatrix((2, 1, 1), 1, pattern((2, 1, 1), 1, (x,), 2))) is None
    gen = RandomStream(62).generator()
    z = CoordMatrix((2, 1, 1, 1), 1, gen.standard_normal((2, 5)))
    assert residual_parameters(z) is None


def test_already_normal_identity_transform():
    z = CoordMatrix((1, 1, 1), 1, pattern((1, 1, 1), 1))
    out = reduce3(z)
    assert np.allclose(out.g, np.eye(2))
    for blk in out.h.blocks:
        assert np.allclose(blk.coeffs[0], np.eye(1))
    assert out.residual < 1e-14


def test_proof_recipe_values():
    # z = [[1,0,2],[0,1,-3]]: the recipe gives h3 = 1/2 and h2 = 3/2
    z = CoordMatrix((1, 1, 1), 1, np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -3.0]]))
    out = reduce3(z)
    assert out.h.blocks[1].coeffs[0][0, 0] == pytest.approx(1.5)
    assert out.h.blocks[2].coeffs[0][0, 0] == pytest.approx(0.5)


@pytest.mark.parametrize("lam", [(1, 1, 1), (2, 1), (3,)])
@pytest.mark.parametrize("r", [1, 2])
def test_reduce3_synthetic_orbit(lam, r):
    gen = RandomStream(41 + r).generator()
    z0 = CoordMatrix(lam, r, pattern(lam, r))
    g, h = _random_pair(lam, r, gen)
    z1 = apply_group(z0, g=g, h=h)
    out = reduce3(z1)
    final = apply_group(z1, g=out.g, h=out.h)
    assert np.abs(final.entries - pattern(lam, r)).max() < 1e-10
    assert z_lambda_member(final).member


@pytest.mark.parametrize("lam,variants", [
    ((1, 1, 1, 1), (1,)),
    ((2, 1, 1), (1, 2, 3)),
    ((2, 2), (1, 2)),
    ((3, 1), (1, 2, 3)),
    ((4,), (1,)),
])
@pytest.mark.parametrize("r", [1, 2])
def test_reduce4_synthetic_orbit(lam, variants, r):
    gen = RandomStream(47 * r + sum(lam)).generator()
    for variant in variants:
        x = 1.5 * np.eye(r) + 0.25 * gen.standard_normal((r, r))
        z0 = CoordMatrix(lam, r, pattern(lam, r, (x,), variant))
        g, h = _random_pair(lam, r, gen)
        z1 = apply_group(z0, g=g, h=h)
        out = reduce4(z1, variant)
        assert out.form_id.endswith(f"x{variant}")
        target = pattern(lam, r, out.x, variant)
        final = apply_group(z1, g=out.g, h=out.h)
        assert np.abs(final.entries - target).max() < 1e-9
        if r == 1:
            assert abs(out.x[0][0, 0] - x[0, 0]) < 1e-9


def test_reduce4_recovers_scalar_parameter():
    # residual parameter 5 survives a random orbit move at r = 1
    gen = RandomStream(53).generator()
    z0 = CoordMatrix((1, 1, 1, 1), 1, pattern((1, 1, 1, 1), 1, (np.array([[5.0]]),)))
    g, h = _random_pair((1, 1, 1, 1), 1, gen)
    out = reduce4(apply_group(z0, g=g, h=h), 1)
    assert abs(out.x[0][0, 0] - 5.0) < 1e-9


def test_reduce4_lam4_pattern():
    gen = RandomStream(54).generator()
    x = np.array([[0.8]])
    z0 = CoordMatrix((4,), 1, pattern((4,), 1, (x,)))
    g, h = _random_pair((4,), 1, gen)
    out = reduce4(apply_group(z0, g=g, h=h), 1)
    final = out.reduced(apply_group(z0, g=g, h=h))
    assert np.allclose(final.entries[:, :3], pattern((4,), 1, (x,))[:, :3], atol=1e-10)


def test_reduce4_identity_assembled_22():
    z = CoordMatrix((2, 2), 1, pattern((2, 2), 1, (np.eye(1),)))
    out = reduce4(z, 1)
    assert np.allclose(out.x[0], np.eye(1))
    assert out.residual < 1e-12


def test_reduce_ones_n3_matches_reduce3():
    # reduce3 on (1,1,1) and reduce4 on (1,1,1,1) run the all-ones recipe:
    # the same g, h, x and residual as reduce_ones, bit for bit
    gen = RandomStream(55).generator()
    cases = [((1, 1, 1), reduce3, ()), ((1, 1, 1, 1), reduce4, (np.array([[0.45]]),))]
    for lam, reducer, xs in cases:
        z0 = CoordMatrix(lam, 1, pattern(lam, 1, xs))
        g, h = _random_pair(lam, 1, gen)
        z1 = apply_group(z0, g=g, h=h)
        a = reducer(z1)
        b = reduce_ones(z1)
        assert len(b.x) == len(xs)
        assert np.array_equal(a.g, b.g)
        for ha, hb in zip(a.h.blocks, b.h.blocks):
            assert all(np.array_equal(ca, cb) for ca, cb in zip(ha.coeffs, hb.coeffs))
        assert all(np.array_equal(xa, xb) for xa, xb in zip(a.x, b.x))
        assert a.residual == b.residual


def test_reduce_ones_cross_ratio_r1():
    gen = RandomStream(56).generator()
    x4 = np.array([[0.45]])
    z0 = CoordMatrix((1, 1, 1, 1), 1, pattern((1, 1, 1, 1), 1, (x4,)))
    g, h = _random_pair((1, 1, 1, 1), 1, gen)
    z1 = apply_group(z0, g=g, h=h)
    out = reduce_ones(z1)
    cols = [z1.entries[:, i] for i in range(4)]

    def q(i, j):
        return cols[i][0] * cols[j][1] - cols[i][1] * cols[j][0]

    cross = (q(0, 2) * q(1, 3)) / (q(0, 3) * q(1, 2))
    assert abs(out.x[0][0, 0] - 1.0 / cross) < 1e-9


def test_reduce_ones_synthetic_r2_n5():
    gen = RandomStream(57).generator()
    r = 2
    xs = tuple(np.eye(r) * (1.5 + k) + 0.2 * gen.standard_normal((r, r))
               for k in range(2))
    lam = (1,) * 5
    z0 = CoordMatrix(lam, r, pattern(lam, r, xs))
    g, h = _random_pair(lam, r, gen)
    out = reduce_ones(apply_group(z0, g=g, h=h))
    assert out.residual < 1e-9


def test_not_in_stratum_raises_with_witness():
    e = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    z = CoordMatrix((1, 1, 1), 1, e)
    with pytest.raises(NotInZLambda) as err:
        reduce3(z)
    assert err.value.witnesses


def test_orbit_invariance_scalar_parameter():
    # a second random orbit move re-reduces to the same scalar parameter
    gen = RandomStream(58).generator()
    z0 = CoordMatrix((1, 1, 1, 1), 1, pattern((1, 1, 1, 1), 1, (np.array([[2.5]]),)))
    g1, h1 = _random_pair((1, 1, 1, 1), 1, gen)
    z1 = apply_group(z0, g=g1, h=h1)
    x1 = reduce4(z1, 1).x[0][0, 0]
    g2, h2 = _random_pair((1, 1, 1, 1), 1, gen)
    z2 = apply_group(z1, g=g2, h=h2)
    x2 = reduce4(z2, 1).x[0][0, 0]
    assert abs(x1 - x2) < 1e-9


def test_wrong_partition_size():
    z = CoordMatrix((2, 1), 1, pattern((2, 1), 1))
    with pytest.raises(ShapeMismatch):
        reduce4(z)
    with pytest.raises(ShapeMismatch):
        reduce_ones(z)
