from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radon_hgf.errors import NotAUnit, NotNilpotent, NotUnipotent, ShapeMismatch
from radon_hgf.jordan import (
    TruncPoly,
    exact_eye,
    nilpotent_exp,
    nilpotent_log,
    ring_exp,
    theta,
    trunc_inverse,
    trunc_mul,
)
from radon_hgf.rng import RandomStream


def _rand_tp(r, p, gen, unip=False):
    coeffs = []
    if unip:
        coeffs.append(np.eye(r, dtype=complex))
    else:
        coeffs.append(gen.standard_normal((r, r)) + 3 * np.eye(r) + 0j)
    for _ in range(p - 1):
        coeffs.append(gen.standard_normal((r, r)) + 1j * gen.standard_normal((r, r)))
    return TruncPoly.from_list(coeffs)


def _exact_tp(r, p, gen, unip=True):
    coeffs = [exact_eye(r)]
    for _ in range(p - 1):
        m = np.empty((r, r), dtype=object)
        for i in range(r):
            for j in range(r):
                m[i, j] = F(int(gen.integers(-6, 7)), int(gen.integers(1, 7)))
        coeffs.append(m)
    return TruncPoly(tuple(coeffs))


def test_unit_is_neutral():
    gen = RandomStream(0).generator()
    b = _rand_tp(2, 3, gen)
    one = TruncPoly.unit(2, 3)
    prod = trunc_mul(one, b)
    assert all(np.allclose(x, y) for x, y in zip(prod.coeffs, b.coeffs))


def test_truncation_kills_top_degree():
    # p=2: (1 + h w)(1 + g w) = 1 + (h + g) w, the w^2 term is cut
    gen = RandomStream(1).generator()
    h = gen.standard_normal((2, 2))
    g = gen.standard_normal((2, 2))
    a = TruncPoly.from_list([np.eye(2), h])
    b = TruncPoly.from_list([np.eye(2), g])
    prod = trunc_mul(a, b)
    assert np.allclose(prod.coeffs[0], np.eye(2))
    assert np.allclose(prod.coeffs[1], h + g)


def test_associativity_exact():
    gen = RandomStream(2).generator()
    a = _exact_tp(2, 3, gen)
    b = _exact_tp(2, 3, gen)
    c = _exact_tp(2, 3, gen)
    lhs = trunc_mul(trunc_mul(a, b), c)
    rhs = trunc_mul(a, trunc_mul(b, c))
    assert all(np.array_equal(x, y) for x, y in zip(lhs.coeffs, rhs.coeffs))


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        trunc_mul(TruncPoly.unit(2, 3), TruncPoly.unit(2, 4))


def test_inverse_of_unit_is_unit():
    one = TruncPoly.unit(3, 4)
    inv = trunc_inverse(one)
    assert all(np.allclose(x, y) for x, y in zip(inv.coeffs, one.coeffs))


def test_inverse_geometric_series():
    # (1 + N w)^{-1} = 1 - N w + N^2 w^2 - ...
    gen = RandomStream(3).generator()
    n = gen.standard_normal((2, 2))
    a = TruncPoly.from_list([np.eye(2), n, np.zeros((2, 2)), np.zeros((2, 2))])
    inv = trunc_inverse(a)
    assert np.allclose(inv.coeffs[1], -n)
    assert np.allclose(inv.coeffs[2], n @ n)
    assert np.allclose(inv.coeffs[3], -n @ n @ n)


def test_inverse_residual_random():
    gen = RandomStream(4).generator()
    a = _rand_tp(2, 4, gen)
    prod = trunc_mul(a, trunc_inverse(a))
    assert np.abs(prod.coeffs[0] - np.eye(2)).max() < 1e-12
    for c in prod.coeffs[1:]:
        assert np.abs(c).max() < 1e-12


def test_inverse_requires_unit():
    a = TruncPoly.from_list([np.zeros((2, 2)), np.eye(2)])
    with pytest.raises(NotAUnit):
        trunc_inverse(a)
    # a singular exact constant coefficient
    a = TruncPoly.from_list([np.array([[F(1), F(2)], [F(1, 2), F(1)]]), exact_eye(2)])
    with pytest.raises(NotAUnit):
        trunc_inverse(a)


def test_inverse_exact_is_two_sided():
    # over Fractions a a^-1 and a^-1 a are the unit exactly; the constant
    # coefficient needs a row swap in its Gauss-Jordan inverse
    a = TruncPoly.from_list([
        np.array([[F(0), F(2)], [F(3, 4), F(1)]]),
        np.array([[F(1, 3), F(-5)], [F(2), F(7, 9)]]),
        np.array([[F(-1), F(0)], [F(4, 5), F(1, 6)]]),
    ])
    inv = trunc_inverse(a)
    assert a.exact and inv.exact
    one = TruncPoly.unit(2, 3, exact=True)
    for prod in (trunc_mul(a, inv), trunc_mul(inv, a)):
        assert all(np.array_equal(x, y) for x, y in zip(prod.coeffs, one.coeffs))


def test_log_of_identity_is_zero():
    lg = nilpotent_log(TruncPoly.unit(2, 4))
    for c in lg.coeffs:
        assert np.abs(c).max() == 0.0


def test_log_theta2_coefficient():
    gen = RandomStream(5).generator()
    h1 = gen.standard_normal((2, 2))
    h2 = gen.standard_normal((2, 2))
    h = TruncPoly.from_list([np.eye(2), h1, h2])
    lg = nilpotent_log(h)
    assert np.allclose(lg.coeffs[2], h2 - 0.5 * (h1 @ h1))


def test_log_theta4_display():
    gen = RandomStream(6).generator()
    hs = [gen.standard_normal((2, 2)) for _ in range(4)]
    h = TruncPoly.from_list([np.eye(2)] + hs)
    th4 = theta(h).numeric[3]
    h1, h2, h3, h4 = hs
    expected = (
        h4
        - 0.5 * (h1 @ h3 + h2 @ h2 + h3 @ h1)
        + (h1 @ h1 @ h2 + h1 @ h2 @ h1 + h2 @ h1 @ h1) / 3.0
        - 0.25 * (h1 @ h1 @ h1 @ h1)
    )
    assert np.abs(th4 - expected).max() < 1e-12


def test_log_requires_unipotent():
    with pytest.raises(NotUnipotent):
        nilpotent_log(TruncPoly.from_list([2 * np.eye(2), np.eye(2)]))


def test_exp_of_zero():
    ex = nilpotent_exp(TruncPoly.zero(2, 3))
    assert np.allclose(ex.coeffs[0], np.eye(2))
    assert np.abs(ex.coeffs[1]).max() == 0.0


def test_exp_truncation_p2():
    a = np.array([[0.0, 1.0], [2.0, 0.5]])
    ex = nilpotent_exp(TruncPoly.from_list([np.zeros((2, 2)), a]))
    assert np.allclose(ex.coeffs[0], np.eye(2))
    assert np.allclose(ex.coeffs[1], a)


def test_exp_requires_nilpotent():
    with pytest.raises(NotNilpotent):
        nilpotent_exp(TruncPoly.unit(2, 3))


def test_round_trip_float():
    gen = RandomStream(7).generator()
    x = TruncPoly.from_list(
        [np.zeros((2, 2))] + [gen.standard_normal((2, 2)) for _ in range(3)]
    )
    back = nilpotent_log(nilpotent_exp(x))
    err = max(np.abs(a - b).max() for a, b in zip(x.coeffs, back.coeffs))
    assert err < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=10**6),
)
def test_round_trip_exact_property(r, p, seed):
    gen = RandomStream(seed).generator()
    h = _exact_tp(r, p, gen)
    back = nilpotent_exp(nilpotent_log(h))
    assert all(np.array_equal(a, b) for a, b in zip(h.coeffs, back.coeffs))


def test_trace_theta_conjugation_invariance():
    gen = RandomStream(8).generator()
    r, p = 3, 4
    hs = [gen.standard_normal((r, r)) + 1j * gen.standard_normal((r, r)) for _ in range(p - 1)]
    g = gen.standard_normal((r, r)) + 2 * np.eye(r)
    ginv = np.linalg.inv(g)
    h = TruncPoly.from_list([np.eye(r)] + hs)
    hconj = TruncPoly.from_list([np.eye(r)] + [g @ m @ ginv for m in hs])
    t1 = theta(h).numeric
    t2 = theta(hconj).numeric
    for a, b in zip(t1, t2):
        assert abs(np.trace(a) - np.trace(b)) < 1e-10


def test_trace_theta_additive_r1():
    # at r = 1 the unipotent group is abelian and Tr theta_k is additive
    gen = RandomStream(9).generator()
    p = 5
    a = TruncPoly.from_list([[[1.0]]] + [[[gen.standard_normal()]] for _ in range(p - 1)])
    b = TruncPoly.from_list([[[1.0]]] + [[[gen.standard_normal()]] for _ in range(p - 1)])
    ta = theta(a).numeric
    tb = theta(b).numeric
    tab = theta(trunc_mul(a, b)).numeric
    for x, y, z in zip(ta, tb, tab):
        assert abs(np.trace(z) - np.trace(x) - np.trace(y)) < 1e-12


def test_ring_exp_matches_matrix_exp_on_constant():
    import scipy.linalg

    gen = RandomStream(10).generator()
    e0 = gen.standard_normal((2, 2))
    x = TruncPoly.from_list([e0, np.zeros((2, 2))])
    ex = ring_exp(x)
    assert np.abs(ex.coeffs[0] - scipy.linalg.expm(e0)).max() < 1e-12
