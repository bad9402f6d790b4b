import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radon_hgf.errors import NotHermitian, ShapeMismatch, SingularMatrix
from radon_hgf.linalg import (
    det,
    haar_unitary,
    haar_unitary_batch,
    hermitian_eigen,
    inverse,
)
from radon_hgf.rng import RandomStream


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
