"""Complex dense linear algebra for small matrices.

Matrices are plain numpy complex128 arrays throughout the package; this
module adds the guarded operations (singularity tolerances, hermiticity
checks) and Haar-distributed unitary sampling that the rest of the code
relies on.

The stack kernels (``haar_from_gaussian``, ``conjugate_diag``,
``matmul_batch``, ``det_batch``, ``inv_batch``) work on (batch, r, r)
stacks of small matrices, as the Monte Carlo path and the batched
integrands produce them. numpy's linalg routines and stacked ``@`` make one LAPACK or BLAS
call per matrix, whose dispatch costs far more than the arithmetic of a
2 x 2 matrix. These kernels loop in Python over the r indices only, so
each numpy operation runs across the whole batch; r is read from the
shape. A product with one matrix is a single GEMM over the rows of the
whole stack, or at r = 1 one multiply per entry. The determinant and the
inverse have closed forms at r = 1 and 2 and defer to LAPACK above,
where an LU across the batch would no longer pay. The Haar draw orthonormalizes only the columns it is given,
and U = V diag(lam) V^* is formed from the first r - 1 columns of V,
which with V V^* = 1 determine it. No kernel writes into its arguments.
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


def hadamard_bound(a: np.ndarray):
    """Product of column 2-norms, an upper bound for |det a|, of one matrix
    or of each matrix of a (batch, m, m) stack.

    The norms are numpy ``norm``'s own arithmetic, sqrt(sum (conj(x) x).real),
    without its wrapper."""
    a = np.asarray(a)
    return np.multiply.reduce(np.sqrt(np.add.reduce((a.conj() * a).real, axis=-2)), axis=-1)


def det(a) -> complex:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch("determinant of a non-square matrix")
    return complex(np.linalg.det(a))


def inverse(a, rtol: float = SINGULAR_RTOL) -> np.ndarray:
    """np.linalg.inv(a), or SingularMatrix when |det a| (from ``det_batch``)
    is at most rtol times the Hadamard bound."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch("inverse of a non-square matrix")
    bound = hadamard_bound(a)
    if bound == 0.0 or abs(det_batch(a[None])[0]) <= rtol * bound:
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
    """Haar unitaries, or their first k columns, from a stack of standard
    complex Gaussian (r, k) matrices, k <= r.

    Q of the QR factorisation whose R has a positive real diagonal; that Q
    is exactly Haar distributed (Mezzadri 2007). Classical Gram-Schmidt
    with each column orthogonalised twice gives it orthogonal to rounding
    (Giraud, Langou & Rozloznik 2005) and needs no phase fix. Column j of
    Q depends on columns 0 .. j of z only, so the first k columns of z give
    the first k columns of Q bit for bit. A single (r, k) matrix is a stack
    of one.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim == 2:
        return haar_from_gaussian(z[None])[0]
    _, r, k = z.shape
    cols = []  # cols[j][i]: entry (i, j) of Q across the batch
    for j in range(k):
        v = [z[:, i, j].copy() for i in range(r)]
        for _ in range(2):
            coefs = [_dot(q, v) for q in cols]
            for q, c in zip(cols, coefs):
                for i in range(r):
                    v[i] -= q[i] * c
        norm = np.sqrt(sum(vi.real ** 2 + vi.imag ** 2 for vi in v))
        for vi in v:
            vi /= norm
        cols.append(v)
    out = np.empty_like(z)
    for j, col in enumerate(cols):
        for i, entry in enumerate(col):
            out[:, i, j] = entry
    return out


def _dot(q, v):
    """sum_i conj(q_i) v_i over lists of batch arrays."""
    acc = q[0].conj() * v[0]
    for qi, vi in zip(q[1:], v[1:]):
        acc += qi.conj() * vi
    return acc


def conjugate_diag(v: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """V diag(lam) V^* for real (batch, r) lam, from the first r - 1
    columns v_j of the unitaries V in the (batch, r, k) stack v, k >= r - 1.

    V V^* = 1 gives U = lam_r 1 + sum_{j < r} (lam_j - lam_r) v_j v_j^*, so
    the last column is not needed. The upper triangle is computed and the
    lower one filled with its conjugate, so each result is exactly
    Hermitian with a real diagonal.
    """
    r = lam.shape[-1]
    last = lam[:, r - 1]
    e = [[np.ascontiguousarray(v[:, i, j]) for j in range(r - 1)] for i in range(r)]
    d = [lam[:, j] - last for j in range(r - 1)]
    out = np.empty((lam.shape[0], r, r), dtype=np.complex128)
    for i in range(r):
        w = [d[j] * e[i][j] for j in range(r - 1)]
        out[:, i, i] = sum((d[j] * (e[i][j].real ** 2 + e[i][j].imag ** 2)
                            for j in range(r - 1)), last)
        for k in range(i + 1, r):
            upper = _dot(e[k], w)
            out[:, i, k] = upper
            out[:, k, i] = upper.conj()
    return out


def matmul_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for a (batch, n, k) stack x and y either one (k, p) matrix or
    a (batch, k, p) stack. Against one matrix with k > 1 it is a single
    product of the rows of all of x; otherwise k broadcast products over
    the inner index (at k = 1 one multiply per entry, no BLAS call)."""
    b, n, k = x.shape
    if y.ndim == 2:
        if k > 1:
            return (x.reshape(b * n, k) @ y).reshape(b, n, y.shape[1])
        y = y[None]
    out = x[:, :, 0, None] * y[:, None, 0, :]
    for l in range(1, k):
        out += x[:, :, l, None] * y[:, None, l, :]
    return out


def det_batch(m: np.ndarray) -> np.ndarray:
    """Determinants of a (..., r, r) stack: closed forms at r = 1 and 2
    (ad - bc), LAPACK above."""
    r = m.shape[-1]
    if r == 1:
        return m[..., 0, 0].copy()
    if r == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return np.linalg.det(m)


def inv_batch(m: np.ndarray) -> np.ndarray:
    """Inverses of a (batch, r, r) stack: closed forms at r = 1 and 2 (the
    adjugate over ad - bc), LAPACK above. An exactly singular matrix gives
    non-finite entries at r <= 2, as 1 / 0 does, and raises LinAlgError
    above."""
    r = m.shape[-1]
    if r == 1:
        return 1.0 / m
    if r == 2:
        out = np.empty_like(m)
        out[:, 0, 0] = m[:, 1, 1]
        out[:, 1, 1] = m[:, 0, 0]
        out[:, 0, 1] = -m[:, 0, 1]
        out[:, 1, 0] = -m[:, 1, 0]
        out /= det_batch(m)[:, None, None]
        return out
    return np.linalg.inv(m)
