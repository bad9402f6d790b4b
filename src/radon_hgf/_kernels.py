"""Squared-Vandermonde kernels of the eigenvalue-reduced integrals.

The squared-Vandermonde weight over Monte Carlo eigenvalue batches, and
the quadrature sum against the squared Vandermonde for eigenvalue-reduced
Hermitian integrals.  The first is not what a Monte Carlo chunk costs:
in a cProfile of invariant beta_r and gauss runs at r = 2, drawing the
eigenvalues took about 70% of the time and this weight about 5%.  Both
are plain numpy; the second is an r x r determinant rather than a loop
over the n^r node tuples, and gives the sum of its absolute terms from
the same basis.
"""

import math

import numpy as np

from .errors import UnsupportedCount


def vdm_sq_batch(lams):
    """prod_{i<j} (lam_j - lam_i)^2 for each row of a (batch, r) array."""
    b, r = lams.shape
    out = np.ones(b)
    for i in range(r):
        for j in range(i + 1, r):
            d = lams[:, j] - lams[:, i]
            out *= d * d
    return out


def tensor_vdm_sum(wg, lam, r):
    """(sum over k in [n]^r of prod_i wg[k_i] * Vandermonde(lam[k])^2, and
    the same sum of the absolute terms).

    wg is complex (quadrature weight times per-eigenvalue integrand value
    at each node), lam the real nodes.  Andreief's identity gives the sum
    as r! det(P^T diag(wg) P) for any monic polynomial basis P.  The monic
    orthogonal polynomials of |wg| (Stieltjes recurrence) keep that Gram
    matrix well conditioned, and diagonal when wg is positive, where the
    monomial (Hankel) basis loses digits.  The absolute terms are the sum
    at |wg|, whose Gram matrix in that basis is diagonal: r! times the
    product of the squared norms ||p_k||^2 = sum |wg| p_k^2.
    """
    wg = np.asarray(wg, dtype=np.complex128)
    lam = np.asarray(lam, dtype=np.float64)
    n = lam.shape[0]
    if n < r:
        raise UnsupportedCount(f"a {n}-node rule cannot carry {r} eigenvalues")
    w = np.abs(wg)
    if np.count_nonzero(w) < r:
        # every term repeats a node or meets a zero weight
        return 0j, 0.0
    p = np.zeros((n, r))
    p[:, 0] = 1.0
    prev, norm_prev, norms = np.zeros(n), 1.0, []
    for k in range(r - 1):
        norm = w @ (p[:, k] * p[:, k])
        shift = w @ (lam * p[:, k] * p[:, k]) / norm
        p[:, k + 1] = (lam - shift) * p[:, k] - (norm / norm_prev) * prev
        prev, norm_prev = p[:, k], norm
        norms.append(norm)
    norms.append(w @ (p[:, -1] * p[:, -1]))
    gram = p.T @ (wg[:, None] * p)
    factorial = math.factorial(r)
    return factorial * complex(np.linalg.det(gram)), factorial * float(math.prod(norms))
