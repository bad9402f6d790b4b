"""Host speed from a fixed reference computation.

On a shared virtual machine the CPU time of identical work drifts by up
to half between regimes that last about a minute, and whole runs of a
workload move with it. A fixed reference computation run between the
ops slows down with them. The probe is plain numpy work of the two kinds
the library does: batched 2 x 2 complex QR, determinants and an einsum,
and elementwise products and reductions over n^3 arrays (n = 64). It
calls no library code, so a change to the library does not move it.
"""

import statistics
import time

import numpy as np

# CPU seconds of one probe on the machine the benchmark was calibrated on
# (2 vCPUs, Python 3.11, numpy 2.4, one BLAS thread)
NOMINAL_S = 0.036

_gen = np.random.default_rng(0)
_A = _gen.standard_normal((4096, 2, 2)) + 1j * _gen.standard_normal((4096, 2, 2))
_SQ = np.subtract.outer(*2 * (np.sort(_gen.random(64)),)) ** 2
_W = _gen.standard_normal(64) + 1j * _gen.standard_normal(64)


def probe() -> float:
    """CPU seconds of the reference computation."""
    c0 = time.process_time()
    for _ in range(2):
        q, _ = np.linalg.qr(_A)
        np.linalg.det(_A)
        np.einsum("bij,bkj->bik", q, q.conj())
    cube = _SQ[:, :, None] * _SQ[:, None, :] * _SQ[None, :, :]
    inner = np.einsum("j,k,l,jkl->jkl", _W, _W, _W, cube)
    for i in range(6):
        block = _SQ[i, :, None, None] * _SQ[i, None, :, None] * _SQ[i, None, None, :]
        np.einsum("jkl,jkl->", inner, block)
    return time.process_time() - c0


def speed(probes) -> float:
    """Nominal over mean probe time: below 1 when the host runs slow.
    Multiplying a CPU time by it gives the time at nominal host speed."""
    return NOMINAL_S / statistics.fmean(probes)
