"""Complex dense linear algebra for small matrices.

Matrices are plain numpy complex128 arrays throughout the package; this
module adds the guarded operations (singularity tolerances, hermiticity
checks) and Haar-distributed unitary sampling that the rest of the code
relies on.
"""

import numpy as np

from .errors import NotHermitian, ShapeMismatch, SingularMatrix
from .rng import RandomStream, standard_complex

# Relative scale below which a determinant is treated as zero.  The
# reference scale is the Hadamard bound (product of column norms), which
# is what a well-conditioned determinant is naturally measured against.
SINGULAR_RTOL = 1e-12


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("non-finite matrix entries")
    return m


def hadamard_bound(a: np.ndarray) -> float:
    """Product of column 2-norms; upper bound for |det a|."""
    norms = np.linalg.norm(a, axis=0)
    return float(np.prod(norms))


def det(a) -> complex:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch("determinant of a non-square matrix")
    return complex(np.linalg.det(a))


def inverse(a, rtol: float = SINGULAR_RTOL) -> np.ndarray:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch("inverse of a non-square matrix")
    bound = hadamard_bound(a)
    if bound == 0.0 or abs(np.linalg.det(a)) <= rtol * bound:
        raise SingularMatrix("matrix is singular to working tolerance")
    return np.linalg.inv(a)


def scalar_multiple(a) -> complex | None:
    """x when a == x * identity to rounding, else None."""
    a = as_matrix(a)
    x = complex(np.trace(a)) / a.shape[0]
    if np.abs(a - x * np.eye(a.shape[0])).max() <= 1e-12 * max(1.0, abs(x)):
        return x
    return None


def hermitian_eigen(a, rtol: float = 1e-10):
    """Eigenvalues (ascending, real) and unitary eigenvectors of a Hermitian matrix."""
    a = as_matrix(a)
    scale = max(np.linalg.norm(a), 1e-300)
    if np.linalg.norm(a - a.conj().T) > rtol * scale:
        raise NotHermitian("matrix is not Hermitian to tolerance")
    w, v = np.linalg.eigh(a)
    return w, v


def haar_unitary(r: int, stream: RandomStream) -> np.ndarray:
    """One Haar-distributed r x r unitary."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return haar_from_gaussian(standard_complex(stream, (r, r)))


def haar_unitary_batch(r: int, count: int, stream: RandomStream) -> np.ndarray:
    """Stacked Haar unitaries, shape (count, r, r)."""
    return haar_from_gaussian(standard_complex(stream, (count, r, r)))


def haar_from_gaussian(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack of standard complex Gaussian matrices.

    QR of each matrix, with the R diagonal phases folded into Q so the
    distribution is exactly Haar.
    """
    q, rr = np.linalg.qr(z)
    d = np.diagonal(rr, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
