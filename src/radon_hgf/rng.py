"""Deterministic counter-based random streams.

Every stochastic routine in the package draws from a ``RandomStream``:
a (seed, counter) pair backed by the Philox counter-based bit generator.
Identical (seed, counter) produces an identical byte sequence on every
platform, and independent substreams are obtained by jumping the counter,
never by sharing a mutable generator.  That fixed split is what keeps
results bit-identical for any worker thread count (``thread_count``).
"""

import os
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

# Counter stride between jumped substreams.  Philox has a 256-bit counter;
# 2**64 draws per substream is unreachable in practice.
_JUMP_STRIDE = 1 << 64


@dataclass(frozen=True)
class RandomStream:
    seed: int = 0
    counter: int = 0

    def generator(self) -> Generator:
        """Fresh numpy Generator positioned at (seed, counter)."""
        bg = Philox(key=self.seed)
        if self.counter:
            bg.advance(self.counter)
        return Generator(bg)

    def jump(self, n: int) -> "RandomStream":
        """Substream n: same seed, counter advanced by n strides."""
        if n < 0:
            raise ValueError("substream index must be nonnegative")
        return RandomStream(self.seed, self.counter + n * _JUMP_STRIDE)

    def bytes(self, count: int) -> bytes:
        return self.generator().bytes(count)


def standard_complex(stream: RandomStream, shape) -> np.ndarray:
    """Standard complex Gaussian array: real and imaginary parts N(0, 1/2)."""
    g = stream.generator()
    re = g.standard_normal(shape)
    im = g.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def thread_count() -> int:
    """Worker threads for the Monte Carlo partitions, from RADON_HGF_THREADS (default 1)."""
    raw = os.environ.get("RADON_HGF_THREADS", "").strip() or "1"
    message = f"RADON_HGF_THREADS must be a positive integer, got {raw!r}"
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if count < 1:
        raise ValueError(message)
    return count
