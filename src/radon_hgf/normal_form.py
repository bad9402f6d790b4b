"""Orbit normal forms of coordinate matrices under GL(2r) x H_lambda.

Each reduction follows a fixed pivot recipe: invert the designated pair
of leading column blocks, then solve for the block-group coefficients
that clear the remaining columns.  No alternative pivots are tried, so a
failed inversion means the input is outside the open stratum and
surfaces as NotInZLambda.  The recovered residual parameters x are the
effective variables of the hypergeometric families.  One engine,
``_normal_form``, runs every reduction, and ``reduce_orbit`` picks the
reducer by partition.

The moves act on the point's entries array: a left move is one product,
a right move rewrites the columns of its own block only, and the reduced
entries are validated as a CoordMatrix once, at the end.  A move that
overflows shows there, or at the next pivot, as DegenerateOrbit.
"""

from dataclasses import dataclass

import numpy as np

from .characters import GroupElement
from .errors import (DegenerateOrbit, NotInZLambda, ShapeMismatch, SingularMatrix,
                     UnsupportedPartition)
from .grassmann import (
    CoordMatrix,
    apply_group,
    block_action,
    require_member,
    z_lambda_member,
)
from .jordan import TruncPoly, trunc_mul
from .linalg import inverse

RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class NormalFormResult:
    g: np.ndarray
    h: GroupElement
    x: tuple
    form_id: str
    residual: float

    def reduced(self, z: CoordMatrix) -> CoordMatrix:
        return apply_group(z, g=self.g, h=self.h)


# (top, bottom) block tokens of the table form per (partition, variant):
# I, -I and 0 are r x r blocks, and each x or -x slot takes the next
# residual parameter.  The all-ones rows are generated by _layout.
_LAYOUTS = {
    ((2, 1), 1): (("I", "0", "0"), ("0", "I", "I")),
    ((3,), 1): (("I", "0", "0"), ("0", "I", "0")),
    ((2, 1, 1), 1): (("I", "0", "0", "I"), ("0", "x", "I", "-I")),
    ((2, 1, 1), 2): (("I", "0", "0", "I"), ("0", "I", "I", "-x")),
    ((2, 1, 1), 3): (("I", "0", "0", "x"), ("0", "I", "I", "-I")),
    ((2, 2), 1): (("I", "0", "0", "I"), ("0", "x", "I", "0")),
    ((2, 2), 2): (("I", "0", "0", "x"), ("0", "I", "I", "0")),
    ((3, 1), 1): (("I", "0", "0", "0"), ("0", "I", "x", "I")),
    ((3, 1), 2): (("I", "x", "0", "0"), ("0", "-I", "0", "I")),
    ((3, 1), 3): (("I", "0", "0", "x"), ("0", "I", "0", "-I")),
    ((4,), 1): (("I", "0", "0", "0"), ("0", "I", "0", "x")),
}


def _layout(lam, variant):
    n = len(lam)
    if n >= 3 and all(nk == 1 for nk in lam) and variant == 1:
        return ("I", "0") + ("I",) * (n - 2), ("0", "I", "-I") + ("-x",) * (n - 3)
    try:
        return _LAYOUTS[lam, variant]
    except KeyError:
        raise ShapeMismatch(f"no table pattern for partition {lam} variant {variant}") from None


def pattern(lam, r, xs=(), variant: int = 1) -> np.ndarray:
    """Table pattern for the given partition (and variant for lam |- 4)."""
    lam = tuple(lam)
    if r < 1:
        raise ShapeMismatch(f"matrix size r must be at least 1, got {r}")
    top, bottom = _layout(lam, variant)
    slots = sum(token.endswith("x") for token in top + bottom)
    if len(xs) != slots:
        raise ShapeMismatch(f"partition {lam} variant {variant} takes {slots} residual parameters")
    xs = [np.asarray(x, dtype=np.complex128) for x in xs]
    for x in xs:
        if x.shape != (r, r):
            raise ShapeMismatch(f"residual parameters must be {r} x {r}, got shape {x.shape}")
    eye = np.eye(r, dtype=np.complex128)
    fixed = {"I": eye, "-I": -eye, "0": np.zeros((r, r), dtype=np.complex128)}
    xs = iter(xs)

    def block(token):
        if token in fixed:
            return fixed[token]
        x = next(xs)
        return x if token == "x" else -x

    rows = [np.concatenate([block(token) for token in row], axis=1) for row in (top, bottom)]
    return np.concatenate(rows, axis=0)


def residual_parameters(z: CoordMatrix):
    """The residual parameters of z when z is the variant-1 table form, read
    back from its x slots; None when it is not."""
    if z.m != 2 * z.r:
        return None
    try:
        top, bottom = _layout(z.lam, 1)
    except ShapeMismatch:
        return None
    r = z.r
    xs = []
    for half, row in ((z.entries[:r], top), (z.entries[r:], bottom)):
        for c, token in enumerate(row):
            if token.endswith("x"):
                x = half[:, c * r : (c + 1) * r]
                xs.append(x if token == "x" else -x)
    target = pattern(z.lam, r, xs)
    scale = max(1.0, float(np.abs(z.entries).max()))
    if float(np.abs(z.entries - target).max()) / scale > 1e-12:
        return None
    return tuple(xs)


class _Reduction:
    """Accumulates left GL(2r) and right block-group moves on the 2r x nr
    entries array of the point being reduced.

    A left move is one product g @ e on the whole array. A right move of
    block j rewrites only that block's n_j r columns, by the Toeplitz rule of
    ``block_action``; the other blocks are left as they are. Every move makes
    a new array, so blocks read before a move keep their values. The
    entries are validated as a ``CoordMatrix`` once, in ``result``.
    """

    def __init__(self, z: CoordMatrix):
        self.lam, self.r = z.lam, z.r
        self.e = z.entries
        self.starts = [z._block_start(j) for j in range(z.ell)]
        self.g = np.eye(z.m, dtype=np.complex128)
        self.eye = np.eye(z.r, dtype=np.complex128)
        self.hblocks = [TruncPoly.unit(z.r, nk) for nk in z.lam]

    def left(self, g):
        self.e = g @ self.e
        self.g = g @ self.g

    def right_block(self, j, coeffs):
        r, nk = self.r, self.lam[j]
        coeffs = list(coeffs) + [np.zeros((r, r))] * (nk - len(coeffs))
        tp = TruncPoly.from_list(coeffs)
        start, stop = self.starts[j], self.starts[j] + nk * r
        e = self.e.copy()
        e[:, start:stop] = block_action(self.e[:, start:stop], tp.coeffs, r)
        self.e = e
        self.hblocks[j] = trunc_mul(self.hblocks[j], tp)

    def block(self, j, q):
        start = self.starts[j] + q * self.r
        return self.e[:, start : start + self.r]

    def upper(self, j, q):
        return self.block(j, q)[: self.r, :]

    def lower(self, j, q):
        return self.block(j, q)[self.r :, :]

    def result(self, xs, form_id, target) -> NormalFormResult:
        final = self.e
        if not np.isfinite(final).all():
            raise DegenerateOrbit(f"reduction overflowed to non-finite entries for {form_id}")
        scale = max(1.0, float(np.abs(target).max()), float(np.abs(final).max()))
        residual = float(np.abs(final - target).max()) / scale
        # a nan residual fails this test too
        if not residual <= RESIDUAL_RTOL:
            raise DegenerateOrbit(
                f"reduction residual {residual:.2e} exceeds tolerance for {form_id}"
            )
        try:
            reduced = CoordMatrix(self.lam, self.r, final)
        except ShapeMismatch as exc:
            raise DegenerateOrbit(f"reduced form is rank deficient ({form_id})") from exc
        if not z_lambda_member(reduced).member:
            raise DegenerateOrbit(
                f"reduced form violates the table nondegeneracy conditions ({form_id})"
            )
        return NormalFormResult(
            g=self.g,
            h=GroupElement(tuple(self.hblocks)),
            x=tuple(xs),
            form_id=form_id,
            residual=residual,
        )


def _pivot_inverse(mat, what):
    try:
        return inverse(mat)
    except SingularMatrix as exc:
        raise NotInZLambda(f"designated pivot {what} is singular") from exc
    except ValueError as exc:  # the moves so far overflowed
        raise DegenerateOrbit(f"designated pivot {what} is not finite") from exc


def _shear(r, beta):
    g = np.eye(2 * r, dtype=np.complex128)
    g[:r, r:] = beta
    return g


def _row_scale(r, s):
    g = np.eye(2 * r, dtype=np.complex128)
    g[r:, r:] = s
    return g


def _all_ones_steps(red: _Reduction, variant) -> tuple:
    """(1^n) after the first pivot: the third block to (I, -I), then the top
    of every later block to I.  Returns the residual parameters x_4, ..., x_n."""
    v0, v1 = red.upper(2, 0), red.lower(2, 0)
    h3 = _pivot_inverse(v0, "v0")
    h2 = -v1 @ h3
    red.left(_row_scale(red.r, _pivot_inverse(h2, "h2")))
    red.right_block(1, [h2])
    red.right_block(2, [h3])
    xs = []
    for j in range(3, len(red.lam)):
        red.right_block(j, [_pivot_inverse(red.upper(j, 0), f"w{j + 1}")])
        xs.append(-red.lower(j, 0))
    return tuple(xs)


def _steps3(red: _Reduction, variant) -> tuple:
    """(2,1) and (3,) after the first pivot; their tables have no x."""
    if red.lam == (2, 1):
        v0, v1 = red.upper(0, 1), red.lower(0, 1)
        red.right_block(0, [red.eye, -v0])
        red.left(_row_scale(red.r, _pivot_inverse(v1, "v1")))
        red.right_block(1, [v1])
        return ()
    v0, v1 = red.upper(0, 2), red.lower(0, 2)
    red.left(_shear(red.r, v1))
    red.right_block(0, [red.eye, -v1, -v0])
    return ()


def _steps4(red: _Reduction, variant) -> tuple:
    """The partitions of four other than (1^4) after the first pivot, by
    variant; returns (x,)."""
    lam, r, eye = red.lam, red.r, red.eye
    if lam == (2, 1, 1):
        a, c = red.upper(0, 1), red.lower(0, 1)
        red.right_block(0, [eye, -a])
        b = red.upper(2, 0)
        if variant == 1:
            red.right_block(2, [_pivot_inverse(b, "b")])
            e = red.lower(2, 0)
            s = -_pivot_inverse(e, "e")
            red.left(_row_scale(r, s))
            red.right_block(1, [_pivot_inverse(s, "s")])
            return (red.lower(0, 1),)
        if variant == 2:
            red.right_block(2, [_pivot_inverse(b, "b")])
            s = _pivot_inverse(c, "c")
            red.left(_row_scale(r, s))
            red.right_block(1, [c])
            return (-red.lower(2, 0),)
        s = _pivot_inverse(c, "c")
        red.left(_row_scale(r, s))
        red.right_block(1, [c])
        sd = red.lower(2, 0)
        red.right_block(2, [-_pivot_inverse(sd, "d")])
        return (red.upper(2, 0),)
    if lam == (2, 2):
        a = red.upper(0, 1)
        red.right_block(0, [eye, -a])
        d = red.lower(1, 1)
        red.right_block(1, [eye, -d])
        b = red.upper(1, 1)
        if variant == 1:
            red.right_block(1, [_pivot_inverse(b, "b")])
            red.left(_row_scale(r, b))
            return (red.lower(0, 1),)
        c = red.lower(0, 1)
        red.left(_row_scale(r, _pivot_inverse(c, "c")))
        red.right_block(1, [c])
        return (red.upper(1, 1),)
    p, v = red.upper(0, 2), red.lower(0, 2)
    if lam == (4,):
        q, w = red.upper(0, 3), red.lower(0, 3)
        red.left(_shear(r, v))
        h3 = v @ p + p @ v + v @ v @ v - q - v @ w
        red.right_block(0, [eye, -v, -p, h3])
        return (red.lower(0, 3),)
    q, w = red.upper(1, 0), red.lower(1, 0)  # lam == (3, 1)
    w_inv = _pivot_inverse(w, "w")
    if variant == 1:
        beta = -q @ w_inv
        red.left(_shear(r, beta))
        red.right_block(1, [w_inv])
        h2 = beta @ beta - p - beta @ v
        red.right_block(0, [eye, -beta, h2])
        return (red.lower(0, 2),)
    if variant == 2:
        beta = -q @ w_inv
        red.left(_shear(r, beta))
        red.left(_row_scale(r, -eye))
        red.right_block(1, [-w_inv])
        red.right_block(0, [eye, -v, -p])
        return (red.upper(0, 1),)
    red.left(_shear(r, v))
    red.right_block(0, [eye, -v, -p])
    sw = red.lower(1, 0)
    red.right_block(1, [-_pivot_inverse(sw, "w")])
    return (red.upper(1, 0),)


def _normal_form(z: CoordMatrix, n: int, form_id: str, variant: int = 1) -> NormalFormResult:
    """The one reduction: the shape, membership and variant checks, the
    first pivot, the partition's steps and the residual against the table
    form.  The first pivot takes degrees 0 and 1 of block 1 to the identity
    when lambda_1 >= 3, else the leading columns of blocks 1 and 2."""
    if z.m != 2 * z.r:
        raise ShapeMismatch("normal forms need m = 2r")
    if z.n != n:
        raise ShapeMismatch(f"partition weight must be {n}")
    require_member(z)
    lam = z.lam
    _layout(lam, variant)  # a variant the table lacks raises ShapeMismatch
    red = _Reduction(z)
    if lam[0] >= 3:
        second, what = (0, 1), "(z0, z1)"
    else:
        second, what = (1, 0), "(z1, z2)" if lam[0] == 1 else "(z0^(1), z0^(2))"
    red.left(_pivot_inverse(np.concatenate([red.block(0, 0), red.block(*second)], axis=1), what))
    steps = _all_ones_steps if lam[0] == 1 else _steps3 if n == 3 else _steps4
    xs = steps(red, variant)
    return red.result(xs, form_id, pattern(lam, z.r, xs, variant))


def reduce3(z: CoordMatrix) -> NormalFormResult:
    """Normal form for partitions of 3; the table has no residual parameters."""
    return _normal_form(z, 3, f"{_fmt(z.lam)}/x")


def reduce4(z: CoordMatrix, variant: int = 1) -> NormalFormResult:
    """Normal form for partitions of 4; variant selects the table column."""
    return _normal_form(z, 4, f"{_fmt(z.lam)}/x{variant}", variant)


def reduce_ones(z: CoordMatrix) -> NormalFormResult:
    """All-ones partition, n >= 3: residual parameters x_4, ..., x_n."""
    if any(nk != 1 for nk in z.lam):
        raise ShapeMismatch("reduce_ones needs the all-ones partition")
    if z.n < 3:
        raise ShapeMismatch("need at least three blocks")
    return _normal_form(z, z.n, f"(1^{z.n})/x")


def reduce_orbit(z: CoordMatrix, variant: int = 1) -> NormalFormResult:
    """The table form of z by its partition's reducer: ``reduce3`` for
    |lambda| = 3, ``reduce4`` at ``variant`` for |lambda| = 4, and
    ``reduce_ones`` for the all-ones partitions of five or more. Another
    partition has no reducer and raises UnsupportedPartition; a variant
    that the partition's table lacks raises ShapeMismatch."""
    if z.n == 4:
        return reduce4(z, variant)
    if z.n == 3 or (z.n >= 5 and z.lam[0] == 1):
        _layout(z.lam, variant)
        return reduce3(z) if z.n == 3 else reduce_ones(z)
    raise UnsupportedPartition(f"no reduction for partition {z.lam}")


def _fmt(lam) -> str:
    return "(" + ",".join(str(n) for n in lam) + ")"
