import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radon_hgf.errors import NotHermitian, ShapeMismatch, SingularBlock, SingularMatrix
from radon_hgf.integrands import _logdet_batch
from radon_hgf.linalg import (
    conjugate_diag,
    det,
    det_batch,
    haar_from_gaussian,
    haar_unitary,
    haar_unitary_batch,
    hadamard_bound,
    hermitian_eigen,
    inv_batch,
    inverse,
    matmul_batch,
)
from radon_hgf.rng import RandomStream, standard_complex


def test_det_identity():
    assert det(np.eye(3)) == pytest.approx(1.0)


def test_det_diagonal():
    assert det(np.diag([2.0, 3.0])) == pytest.approx(6.0)


def test_det_multiplicativity_random():
    gen = RandomStream(1).generator()
    a = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    b = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    lhs = det(a) * det(b)
    rhs = det(a @ b)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_det_multiplicativity_property(r, seed):
    gen = RandomStream(seed).generator()
    a = gen.standard_normal((r, r)) + 1j * gen.standard_normal((r, r))
    b = gen.standard_normal((r, r)) + 1j * gen.standard_normal((r, r))
    lhs = det(a) * det(b)
    rhs = det(a @ b)
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def test_det_rejects_rectangular():
    with pytest.raises(ShapeMismatch):
        det(np.ones((2, 3)))


def test_inverse_identity_and_diagonal():
    assert np.allclose(inverse(np.eye(2)), np.eye(2))
    assert np.allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))


def test_inverse_residual():
    gen = RandomStream(2).generator()
    a = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)) + 2 * np.eye(3)
    resid = np.linalg.norm(a @ inverse(a) - np.eye(3))
    assert resid < 1e-10


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_inverse_guard_of_a_pivot(r):
    """The 2r x 2r pivot (and an r x r one): np.linalg.inv's bits when the
    determinant clears 1e-12 of the Hadamard bound, SingularMatrix at 1e-13."""
    gen = RandomStream(70 + r).generator()
    for n in (r, 2 * r):
        a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)) + 2 * np.eye(n)
        assert np.array_equal(inverse(a), np.linalg.inv(a))
    n = 2 * r
    u = haar_unitary(n, RandomStream(80 + r))
    for t, singular in ((1e-13, True), (1e-11, False)):
        # columns e_0, ..., e_{n-2} and e_0 + t e_{n-1}, turned by u: the
        # determinant is t in modulus and the Hadamard bound sqrt(1 + t^2)
        a = np.eye(n, dtype=np.complex128)
        a[0, n - 1] = 1.0
        a[n - 1, n - 1] = t
        a = u @ a
        if singular:
            with pytest.raises(SingularMatrix):
                inverse(a)
        else:
            assert np.array_equal(inverse(a), np.linalg.inv(a))


def test_hadamard_bound_is_numpy_norm():
    gen = RandomStream(75).generator()
    for n in (1, 2, 3, 4, 6, 8):
        stack = gen.standard_normal((5, n, n)) + 1j * gen.standard_normal((5, n, n))
        got = hadamard_bound(stack)
        for a, bound in zip(stack, got):
            want = float(np.prod(np.linalg.norm(a, axis=0)))
            assert hadamard_bound(a) == want == bound


def test_hermitian_eigen_examples():
    w, v = hermitian_eigen(np.diag([1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0])
    assert np.allclose(np.abs(v), np.eye(2))

    w, _ = hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_hermitian_eigen_reconstruction():
    gen = RandomStream(3).generator()
    a = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    a = a + a.conj().T
    w, v = hermitian_eigen(a)
    assert np.linalg.norm((v * w) @ v.conj().T - a) < 1e-9
    # trace equals eigenvalue sum
    assert abs(np.trace(a).real - w.sum()) < 1e-10
    assert np.allclose(w.imag if np.iscomplexobj(w) else 0.0, 0.0)


def test_hermitian_eigen_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_haar_unit_modulus_r1():
    u = haar_unitary(1, RandomStream(4))
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitarity():
    u = haar_unitary(2, RandomStream(5))
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-10


def test_haar_moment():
    # E|U_11|^2 = 1/r for Haar-distributed unitaries
    r, n = 3, 100_000
    u = haar_unitary_batch(r, n, RandomStream(6))
    vals = np.abs(u[:, 0, 0]) ** 2
    mean = vals.mean()
    sem = vals.std(ddof=1) / np.sqrt(n)
    assert abs(mean - 1.0 / r) < 3.0 * sem


@pytest.mark.parametrize("r", [1, 2, 4])
def test_haar_single_matches_batch(r):
    s = RandomStream(11)
    assert np.array_equal(haar_unitary(r, s), haar_unitary_batch(r, 1, s)[0])


def _gaussian_stack(r, count, seed):
    return standard_complex(RandomStream(seed), (count, r, r))


@pytest.mark.parametrize("r", range(1, 9))
def test_haar_matches_phase_fixed_lapack_q(r):
    # Q with a positive R diagonal is unique, so Gram-Schmidt and LAPACK's
    # Householder QR agree on it to rounding
    z = _gaussian_stack(r, 2000, 20 + r)
    q_ref, rr = np.linalg.qr(z)
    d = np.diagonal(rr, axis1=-2, axis2=-1)
    q_ref = q_ref * (d / np.abs(d))[..., None, :]
    q = haar_from_gaussian(z)
    assert np.abs(q - q_ref).max() <= 1e-12
    gram = np.conj(np.swapaxes(q, 1, 2)) @ q
    assert np.linalg.norm(gram - np.eye(r), axis=(1, 2)).max() <= 1e-14


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_det_batch_matches_lapack(r):
    m = _gaussian_stack(r, 500, 40 + r)
    ref = np.linalg.det(m)
    assert np.abs(det_batch(m) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_det_batch_exactly_singular_2x2():
    m = np.array([[[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0], [0.0, 3.0]]], dtype=np.complex128)
    assert det_batch(m)[0] == 0.0
    with pytest.raises(SingularBlock):
        _logdet_batch(m)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_inv_batch_matches_lapack(r):
    m = _gaussian_stack(r, 500, 90 + r)
    ref = np.linalg.inv(m)
    scale = np.abs(ref).max(axis=(1, 2))
    assert (np.abs(inv_batch(m) - ref).max(axis=(1, 2)) <= 1e-12 * scale).all()


def test_matmul_batch_single_and_stack():
    x = _gaussian_stack(3, 7, 50)
    y = _gaussian_stack(3, 7, 51)
    assert np.allclose(matmul_batch(x, y), x @ y, rtol=0, atol=1e-14)
    assert np.allclose(matmul_batch(x, y[0]), x @ y[0], rtol=0, atol=1e-14)
    rect = standard_complex(RandomStream(52), (3, 2))
    assert np.allclose(matmul_batch(x, rect), x @ rect, rtol=0, atol=1e-14)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_conjugate_diag_exactly_hermitian(r):
    z = _gaussian_stack(r, 300, 60 + r)
    v = haar_from_gaussian(z)
    lam = RandomStream(70 + r).generator().standard_normal((300, r))
    ref = (v * lam[:, None, :]) @ v.conj().transpose(0, 2, 1)
    scale = np.abs(lam).max(axis=1)[:, None, None]
    # the full V and its first r - 1 columns give the same U
    for cols in (v, v[:, :, : r - 1]):
        u = conjugate_diag(cols, lam)
        assert np.array_equal(u, np.conj(np.swapaxes(u, 1, 2)))
        assert (np.diagonal(u, axis1=1, axis2=2).imag == 0.0).all()
        assert (np.abs(u - ref) <= 1e-14 * scale).all()
    # column j of Q depends on columns 0 .. j of z only
    for k in range(r + 1):
        assert np.array_equal(haar_from_gaussian(z[:, :, :k]), v[:, :, :k])


@pytest.mark.parametrize("batch", [1, 5])
def test_stack_kernels_leave_arguments_unchanged(batch):
    z = _gaussian_stack(2, batch, 80)
    y = _gaussian_stack(2, batch, 81)
    w = _gaussian_stack(3, batch, 83)
    lam = RandomStream(82).generator().standard_normal((batch, 2))
    args = (z, y, w, lam)
    before = [a.copy() for a in args]
    haar_from_gaussian(z)
    haar_from_gaussian(z[0])
    haar_from_gaussian(z[:, :, :1])
    conjugate_diag(z, lam)
    conjugate_diag(z[:, :, :1], lam)
    matmul_batch(z, y)
    matmul_batch(z, y[0])
    det_batch(z)
    det_batch(z[:, :1, :1])
    inv_batch(z)
    inv_batch(z[:, :1, :1])
    inv_batch(w)
    for a, b in zip(args, before):
        assert np.array_equal(a, b)
