import numpy as np
import pytest

from radon_hgf.characters import (
    GroupElement,
    LieDirection,
    PartitionWeight,
    chi_jordan,
    chi_lambda,
    chi_nonconfluent,
    dchi_lambda,
    underline,
)
from radon_hgf.errors import BranchCutWarning, InvalidWeight, SingularBlock
from radon_hgf.jordan import TruncPoly, trunc_mul
from radon_hgf.rng import RandomStream


def _posdef(r, gen):
    a = gen.standard_normal((r, r)) + 1j * gen.standard_normal((r, r))
    return a @ a.conj().T + np.eye(r)


def test_chi_nonconfluent_identity():
    assert chi_nonconfluent([np.eye(2)] * 3, [0.3, -1.1, 0.8]) == pytest.approx(1.0)


def test_chi_nonconfluent_scalar_integer_powers():
    val = chi_nonconfluent([np.array([[2.0]]), np.array([[3.0]])], [1, 2])
    assert val == pytest.approx(18.0)


def test_chi_nonconfluent_log_domain_oracle():
    gen = RandomStream(21).generator()
    hs = [_posdef(2, gen) for _ in range(3)]
    alpha = [0.7, -1.3, 0.4]
    val = chi_nonconfluent(hs, alpha)
    ref = np.exp(sum(a * np.log(np.linalg.det(h)) for a, h in zip(alpha, hs)))
    assert abs(val - ref) < 1e-12 * abs(ref)


def test_chi_nonconfluent_singular():
    with pytest.raises(SingularBlock):
        chi_nonconfluent([np.zeros((2, 2))], [0.5])


def test_branch_cut_warning():
    with pytest.warns(BranchCutWarning):
        chi_nonconfluent([np.array([[-2.0]])], [0.5])


def test_chi_jordan_unit():
    assert chi_jordan(TruncPoly.unit(2, 3), [0.4, 1.0, 2.0]) == pytest.approx(1.0)


def test_chi_jordan_p2_exponential():
    gen = RandomStream(22).generator()
    a = gen.standard_normal((2, 2))
    val = chi_jordan(TruncPoly.from_list([np.eye(2), a]), [0.5, 1.3])
    assert abs(val - np.exp(1.3 * np.trace(a))) < 1e-12


def test_chi_jordan_multiplicative():
    gen = RandomStream(23).generator()
    alpha = [0.6, -0.8, 1.1]
    worst = 0.0
    for _ in range(6):
        a = TruncPoly.from_list([_posdef(2, gen)] + [0.4 * gen.standard_normal((2, 2)) for _ in range(2)])
        b = TruncPoly.from_list([_posdef(2, gen)] + [0.4 * gen.standard_normal((2, 2)) for _ in range(2)])
        lhs = chi_jordan(trunc_mul(a, b), alpha)
        rhs = chi_jordan(a, alpha) * chi_jordan(b, alpha)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst < 1e-10


def test_chi_lambda_identity():
    pw = PartitionWeight((2, 1), ((-1.5, 1.0), (-0.5,)), 2, 2, strict=False)
    assert chi_lambda(GroupElement.identity((2, 1), 2), pw) == pytest.approx(1.0)


def test_chi_lambda_all_ones_reduces_to_nonconfluent():
    gen = RandomStream(24).generator()
    hs = [_posdef(1, gen) for _ in range(3)]
    alpha = (0.3, -1.2, -1.1)
    pw = PartitionWeight((1, 1, 1), tuple((a,) for a in alpha), 2, 1, strict=False)
    h = GroupElement(tuple(TruncPoly.from_list([m]) for m in hs))
    assert abs(chi_lambda(h, pw) - chi_nonconfluent(hs, alpha)) < 1e-14


def test_chi_lambda_per_block():
    gen = RandomStream(25).generator()
    pw = PartitionWeight((2, 1), ((-1.3, 0.9), (-0.7,)), 2, 2, strict=False)
    blk1 = TruncPoly.from_list([_posdef(2, gen), gen.standard_normal((2, 2))])
    blk2 = TruncPoly.from_list([_posdef(2, gen)])
    h = GroupElement((blk1, blk2))
    val = chi_lambda(h, pw)
    ref = chi_jordan(blk1, pw.alpha[0]) * chi_jordan(blk2, pw.alpha[1])
    assert abs(val - ref) < 1e-12 * abs(ref)


def test_chi_lambda_multiplicative():
    gen = RandomStream(29).generator()
    lam = (2, 1)
    pw = PartitionWeight(lam, ((-1.3, 0.9), (-0.7,)), 2, 2, strict=False)
    worst = 0.0
    for _ in range(5):
        def element():
            return GroupElement(tuple(
                TruncPoly.from_list(
                    [_posdef(2, gen)] + [0.4 * gen.standard_normal((2, 2))
                                         for _ in range(nk - 1)]
                )
                for nk in lam
            ))

        a, b = element(), element()
        ab = GroupElement(tuple(
            trunc_mul(x, y) for x, y in zip(a.blocks, b.blocks)
        ))
        lhs = chi_lambda(ab, pw)
        rhs = chi_lambda(a, pw) * chi_lambda(b, pw)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst < 1e-10


def test_chi_lambda_scaling_covariance():
    # chi(g h) = (det g)^{sum of leading weights} chi(h) for positive scalar g
    gen = RandomStream(26).generator()
    lam = (2, 1)
    pw = PartitionWeight(lam, ((-1.3, 0.9), (-0.7,)), 2, 1, strict=False)
    h = GroupElement((
        TruncPoly.from_list([[[1.7]], [[0.3]]]),
        TruncPoly.from_list([[[2.4]]]),
    ))
    g = np.array([[1.9]])
    gh = GroupElement(tuple(
        TruncPoly(tuple(g @ c for c in blk.coeffs)) for blk in h.blocks
    ))
    lhs = chi_lambda(gh, pw)
    rhs = (1.9 ** (-2)) * chi_lambda(h, pw)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_underline_invariant_under_scalar_left_multiplication():
    gen = RandomStream(27).generator()
    blk = TruncPoly.from_list([_posdef(2, gen), gen.standard_normal((2, 2))])
    g = _posdef(2, gen)
    scaled = TruncPoly(tuple(g @ c for c in blk.coeffs))
    u1 = underline(blk)
    u2 = underline(scaled)
    for a, b in zip(u1.coeffs, u2.coeffs):
        assert np.abs(a - b).max() < 1e-12


def test_weight_validation_strict():
    # integer leading weight rejected in strict mode
    with pytest.raises(InvalidWeight):
        PartitionWeight((1, 1), ((1.0,), (-3.0,)), 2, 1, strict=True)
    # vanishing top coefficient rejected on blocks of length >= 2
    with pytest.raises(InvalidWeight):
        PartitionWeight((2,), ((-2.0, 0.0),), 2, 1, strict=True)
    # trace-sum violation rejected in both modes
    with pytest.raises(InvalidWeight):
        PartitionWeight((1, 1), ((0.5,), (0.5,)), 2, 1, strict=False)
    # relaxed accepts the pinned integer weights
    PartitionWeight((2, 2), ((-2.35, 1.0), (0.35, -1.0)), 2, 1, strict=False)


def test_weight_validation_accepts_generic():
    pw = PartitionWeight((2, 1), ((-2.6, -1.0), (0.6,)), 2, 1)
    assert pw.n == 3 and pw.ell == 2 and pw.N == 3


def test_dchi_lambda_matches_finite_difference():
    gen = RandomStream(28).generator()
    lam = (2, 1)
    pw = PartitionWeight(lam, ((-1.3, 0.9), (-0.7,)), 2, 2, strict=False)
    blocks = tuple(
        tuple(0.3 * gen.standard_normal((2, 2)) for _ in range(nk)) for nk in lam
    )
    direction = LieDirection(blocks)
    exact = dchi_lambda(direction, pw)

    from radon_hgf.jordan import ring_exp

    def chi_at(t):
        el = GroupElement(tuple(
            ring_exp(TruncPoly.from_list([t * c for c in blk]))
            for blk in blocks
        ))
        return chi_lambda(el, pw)

    eps = 1e-5
    numeric = (chi_at(eps) - chi_at(-eps)) / (2 * eps)
    assert abs(numeric - exact) < 1e-8

